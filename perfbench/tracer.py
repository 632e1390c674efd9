"""Outside-in span tracer for revfuse.

``Tracer.install`` swaps every public function of the traced modules, every
public method of the classes they define, and every by-name import of those
functions (``kernels`` imports ``assert_finite`` and ``wrap`` from ``tensor``)
for a wrapper that records a span: name, start, end and parent.  Nothing in
``src/`` is edited; ``restore`` puts every original object back, and
``restored`` checks that it did.

``summarize`` turns the spans of one benchmark operation into per-layer
numbers.  A span's self time is its duration minus the durations of its
children.  Kernel buckets use self time, so a kernel's finiteness check is
counted under ``tensor.assert_finite`` and not twice; block- and layer-level
numbers marked inclusive use whole span durations.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("tensor", "kernels", "layers", "coupling", "engine", "backbone")

# per-mode per-layer metrics: (name, unit); every workload reports all of them
LAYER_METRICS = (
    ("kernels.conv1x1.fwd.s", "s"),
    ("kernels.conv1x1.bwd.s", "s"),
    ("kernels.conv1x1.calls", "count"),
    ("kernels.dwconv.fwd.s", "s"),
    ("kernels.dwconv.bwd.s", "s"),
    ("kernels.dwconv.calls", "count"),
    ("kernels.bilinear.fwd.s", "s"),
    ("kernels.bilinear.bwd.s", "s"),
    ("kernels.batch_norm.fwd.s", "s"),
    ("kernels.batch_norm.bwd.s", "s"),
    ("kernels.hard_swish.s", "s"),
    ("kernels.elementwise.s", "s"),
    ("kernels.other.s", "s"),
    ("kernels.conv.fwd.gmac_per_s", "GMAC/s"),
    ("tensor.assert_finite.s", "s"),
    ("tensor.assert_finite.calls", "count"),
    ("layers.MBConv.self.s", "s"),
    ("layers.SqueezeExcite.fwd.s", "s"),
    ("layers.SqueezeExcite.bwd.s", "s"),
    ("coupling.forward.s", "s"),
    ("coupling.inverse.s", "s"),
    ("coupling.backward.s", "s"),
    ("coupling.expand1.s", "s"),
    ("coupling.expand2.s", "s"),
    ("coupling.expand3.s", "s"),
    ("coupling.fuse.s", "s"),
    ("backbone.stem.s", "s"),
    ("backbone.head.fwd.s", "s"),
    ("backbone.head.bwd.s", "s"),
    ("backbone.loss.s", "s"),
    ("backbone.sgd.s", "s"),
    ("engine.registry.s", "s"),
    ("engine.registry.calls", "count"),
    ("context.f_evals.forward", "count"),
    ("context.f_evals.backward", "count"),
    ("bench.step.s", "s"),
    ("bench.trace_overhead.s", "s"),
    ("bench.self_coverage", "ratio"),
)

# kernel function -> self-time bucket; conv buckets are split by geometry
_KERNEL_BUCKETS = {
    "bilinear_upsample": "bilinear.fwd",
    "bilinear_upsample_backward": "bilinear.bwd",
    "batch_norm": "batch_norm.fwd",
    "batch_norm_backward": "batch_norm.bwd",
    "hard_swish": "hard_swish",
    "hard_swish_backward": "hard_swish",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
}


def _conv_kind(params) -> str:
    if params.kernel == (1, 1) and params.groups == 1:
        return "conv1x1"
    if params.groups == params.in_channels == params.out_channels:
        return "dwconv"
    return "conv"


# span name -> function of the call's arguments giving the span's tag
_TAGGERS = {
    "kernels.conv2d": lambda args: _conv_kind(args[1]),
    "kernels.conv2d_backward": lambda args: _conv_kind(args[1]),
    "coupling.Silo.forward": lambda args: args[0].name,
    "coupling.Silo.inverse": lambda args: args[0].name,
    "coupling.Silo.backward": lambda args: args[0].name,
}


class Tracer:
    """Records nested spans around the public entry points of revfuse."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------
    def install(self, package) -> None:
        modules = [getattr(package, name) for name in TRACED_MODULES]
        prefix = package.__name__ + "."
        traced = {m.__name__ for m in modules}
        seen_classes = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in traced:
                    self._patch(module, attr, obj, prefix)
                elif (inspect.isclass(obj) and obj.__module__ in traced
                      and id(obj) not in seen_classes):
                    seen_classes.add(id(obj))
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, name, member, prefix)

    def _patch(self, owner, attr: str, fn, prefix: str) -> None:
        name = fn.__module__[len(prefix):] + "." + fn.__qualname__
        tagger = _TAGGERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                          tagger(args) if tagger else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)

    def restored(self) -> bool:
        """True when every patched binding is the original object again."""
        return bool(self._patches) and all(
            vars(owner)[attr] is fn for owner, attr, fn in self._patches)

    @property
    def wrapper_count(self) -> int:
        return len(self._patches)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer numbers for one operation whose wall time was ``wall_s``."""
    dur = [end - start for _, start, end, _, _ in spans]
    self_s = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= dur[i]
    m: dict[str, float] = defaultdict(float)
    for i, (name, _, _, _, tag) in enumerate(spans):
        module, _, rest = name.partition(".")
        if module == "kernels":
            if rest in ("conv2d", "conv2d_backward"):
                direction = "fwd" if rest == "conv2d" else "bwd"
                bucket = f"{tag}.{direction}" if tag != "conv" else "other"
                if rest == "conv2d" and tag != "conv":
                    m[f"kernels.{tag}.calls"] += 1
            else:
                bucket = _KERNEL_BUCKETS.get(rest, "other")
            m[f"kernels.{bucket}.s"] += self_s[i]
        elif name == "tensor.assert_finite":
            m["tensor.assert_finite.s"] += self_s[i]
            m["tensor.assert_finite.calls"] += 1
        elif rest in ("MBConv.forward", "MBConv.backward"):
            m["layers.MBConv.self.s"] += self_s[i]
        elif rest == "SqueezeExcite.forward":
            m["layers.SqueezeExcite.fwd.s"] += dur[i]
        elif rest == "SqueezeExcite.backward":
            m["layers.SqueezeExcite.bwd.s"] += dur[i]
        elif rest in ("Silo.forward", "Silo.inverse", "Silo.backward"):
            m[f"coupling.{rest[5:]}.s"] += dur[i]
            block = "fuse" if tag.startswith("fuse") else tag
            m[f"coupling.{block}.s"] += dur[i]
        elif rest.startswith("StemStage."):
            m["backbone.stem.s"] += dur[i]
        elif rest == "ClassifierHead.forward":
            m["backbone.head.fwd.s"] += dur[i]
        elif rest == "ClassifierHead.backward":
            m["backbone.head.bwd.s"] += dur[i]
        elif rest == "softmax_cross_entropy":
            m["backbone.loss.s"] += dur[i]
        elif rest == "SGDMomentum.step":
            m["backbone.sgd.s"] += dur[i]
        elif rest.startswith("LiveBytesRegistry."):
            m["engine.registry.s"] += dur[i]
            m["engine.registry.calls"] += 1
    m["bench.self_coverage"] = sum(self_s) / wall_s
    m["min_self_s"] = min(self_s, default=0.0)
    return m
