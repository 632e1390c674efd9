"""Reversible bidirectional multi-scale fusion.

The fusion silo couples an N-level feature pyramid in two additive halves:

* down half — intermediate ``m[k] = x[k] + sum_{i<k} Down[i->k](x[i])``,
  every summand a function of *original* inputs only, so the whole half can
  be evaluated in any order;
* up half — output ``o[k] = m[k] + sum_{i>k} Up[i->k](m[i])``, every summand
  a function of intermediates only, again order-free.

Because each half only ever adds transforms of *other* levels, inversion
needs no inverse transforms: subtract the same evaluations back out, in
strictly ordered sequence (coarsest-first for the up half, finest-first for
the down half).  In the all-scalar case each half is a unit-triangular
matrix, hence determinant one.

Every transform is an MBConv whose geometry follows from its two levels
(RevBiFPN, arXiv 2206.14098).  With gap = |dst - src|, a down transform
(src finer than dst) is strided: stride 2**gap, kernel 2**(gap+1) + 1.  An
up transform (src coarser) is a 3x3 unit-stride MBConv followed by
bilinear upsampling by 2**gap.  Every convolution pads by kernel // 2.

``RevBlock`` is the classic two-stream residual coupling on a single tensor,
the single-scale counterpart: a two-level silo at one resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .context import BACKWARD, F_EVAL, ExecContext
from .errors import ConfigurationError
from .layers import MBConv, counted
from .tensor import Tensor

MAX_LEVELS = 4


# ---------------------------------------------------------------------------
# feature pyramid
# ---------------------------------------------------------------------------

class FeaturePyramid:
    """An ordered tuple of NCHW tensors, finest resolution first.

    Levels must agree in batch size and dtype.  By default each level's
    spatial dims must be exactly half the previous level's; tests that build
    degenerate all-scalar pyramids relax that with ``require_halving=False``.
    """

    __slots__ = ("levels", "require_halving")

    def __init__(self, levels, *, require_halving: bool = True):
        levels = tuple(levels)
        if not 1 <= len(levels) <= MAX_LEVELS:
            raise ConfigurationError(
                f"pyramid must have 1..{MAX_LEVELS} levels, got {len(levels)}"
            )
        n0, dt0 = levels[0].n, levels[0].dtype
        for k, lv in enumerate(levels):
            if lv.n != n0 or lv.dtype != dt0:
                raise ConfigurationError(
                    f"pyramid level {k} batch/dtype mismatch: "
                    f"{(lv.n, lv.dtype)} vs {(n0, dt0)}"
                )
            if require_halving and k > 0:
                ph, pw = levels[k - 1].h, levels[k - 1].w
                if (lv.h, lv.w) != (ph // 2, pw // 2) or ph % 2 or pw % 2:
                    raise ConfigurationError(
                        f"pyramid level {k} spatial {(lv.h, lv.w)} is not half "
                        f"of level {k - 1} spatial {(ph, pw)}"
                    )
        self.levels = levels
        self.require_halving = require_halving

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def dtype(self):
        return self.levels[0].dtype

    @property
    def shapes(self) -> tuple:
        return tuple(lv.shape for lv in self.levels)

    @property
    def channels(self) -> tuple:
        return tuple(lv.c for lv in self.levels)

    @property
    def nbytes(self) -> int:
        return sum(lv.nbytes for lv in self.levels)

    def with_levels(self, levels) -> "FeaturePyramid":
        return FeaturePyramid(levels, require_halving=self.require_halving)

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, k: int) -> Tensor:
        return self.levels[k]


def pyramid_max_abs_diff(a: FeaturePyramid, b: FeaturePyramid) -> float:
    """The largest elementwise gap over all levels; NaN if any level has one."""
    return float(np.max([np.max(np.abs(x.data - y.data)) for x, y in zip(a, b)]))


def pyramid_max_rel_diff(a: FeaturePyramid, b: FeaturePyramid) -> float:
    """Per-level infinity-norm error, relative to the reference pyramid b;
    the worst level's, or NaN if any level's is NaN."""
    return float(np.max([float(np.max(np.abs(x.data - y.data)))
                         / max(float(np.max(np.abs(y.data))), 1e-30)
                         for x, y in zip(a, b)]))


def randomize_parameters(named_params, rng: np.random.Generator) -> None:
    """Overwrite parameters in place with a random (non-identity) setting.

    The draw mimics a standard fresh initialization rather than arbitrary
    noise: weights are fan-in-scaled normals, norm scales are jittered around
    1 within ±0.3 (including the zero-initialized final norms, so every
    residual branch becomes active), and norm shifts and biases stay within
    ±0.1.  Bounded jitter matters for reconstruction accuracy: an inverse
    pass replays transforms on reconstructed values, so per-transform
    Jacobian gain compounds across levels and blocks, and unbounded scale
    draws would make deep single-precision round-trips arbitrarily badly
    conditioned regardless of implementation.  Deterministic given the
    generator.
    """
    uniform = lambda shape: rng.uniform(-1.0, 1.0, shape)
    for name, arr in named_params:
        if name.endswith(".project_norm.gamma"):
            # the output scale of a residual branch: fractional relative to
            # the carrier it is added onto, as in trained residual networks —
            # full-scale branches compound the activation magnitude
            # multiplicatively over a deep chain and with it the
            # reconstruction error floor
            new = 0.5 + 0.3 * uniform(arr.shape)
        elif name.endswith(".gamma"):
            new = 1.0 + 0.3 * uniform(arr.shape)
        elif name.endswith((".beta", ".bias", ".b1", ".b2")):
            new = 0.1 * uniform(arr.shape)
        else:
            fan_in = int(np.prod(arr.shape[1:])) or 1
            new = rng.standard_normal(arr.shape) * (1.0 / np.sqrt(fan_in))
        arr[...] = new.astype(arr.dtype)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

class MBConvTransform:
    """One fusion arrow: an MBConv, optionally followed by bilinear upsampling.

    Zero-initialized final norm makes a fresh transform the zero map, so a
    fresh silo is the identity.
    """

    def __init__(self, name: str, in_c: int, out_c: int, *, kernel: int,
                 stride: int = 1, upsample: int = 1, expansion: int,
                 se_ratio: float | None, rng: np.random.Generator, dtype):
        self.name = name
        self.block = MBConv(name, in_c, out_c, kernel=kernel, stride=stride,
                            expansion=expansion, se_ratio=se_ratio,
                            zero_final_gamma=True, rng=rng, dtype=dtype)
        self.upsample_factor = upsample

    def forward(self, x: Tensor, ctx: ExecContext | None = None, want_cache: bool = True):
        y, cache = self.block.forward(x, ctx)
        pre_shape = y.shape
        if self.upsample_factor > 1:
            y = K.bilinear_upsample(y, self.upsample_factor)
        return y, ((cache, pre_shape) if want_cache else None)

    def backward(self, cache, gy: Tensor, registry=None):
        block_cache, pre_shape = cache
        g = gy
        if self.upsample_factor > 1:
            g = K.bilinear_upsample_backward(pre_shape, self.upsample_factor, g)
        return self.block.backward(block_cache, g, registry)

    def parameters(self):
        return self.block.parameters()

    def macs(self, in_shape) -> int:
        return self.block.macs(in_shape)


class ScalarGain:
    """y = gain * x — the degenerate transform for exact-arithmetic oracles."""

    def __init__(self, name: str, gain: float, dtype=np.float64):
        self.name = name
        self.gain = np.array([gain], dtype=dtype)

    def forward(self, x: Tensor, ctx: ExecContext | None = None, want_cache: bool = True):
        y = Tensor(x.data * self.gain[0])
        return y, ((x,) if want_cache else None)

    def backward(self, cache, gy: Tensor, registry=None):
        (x,) = cache
        gx = Tensor(gy.data * self.gain[0])
        ggain = np.array([float(np.sum(x.data * gy.data))], dtype=self.gain.dtype)
        return gx, {f"{self.name}.gain": ggain}

    def parameters(self):
        return [(f"{self.name}.gain", self.gain)]


# ---------------------------------------------------------------------------
# fusion silo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiloSpec:
    """Declarative description of one fusion silo.

    ``expansion[k]`` and squeeze-excite placement apply to transforms whose
    *destination* is level k.  The defaults are declared choices: the silo
    contract (coupling math, transform geometry) does not depend on them.
    """

    levels: int
    channels: tuple[int, ...]
    expansion: tuple[int, ...] = (1, 2, 3, 4)
    se_ratio: float = 0.25
    se_levels: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ConfigurationError(
                f"silo needs 2..{MAX_LEVELS} levels, got {self.levels}"
            )
        if len(self.channels) != self.levels:
            raise ConfigurationError(
                f"silo channels {self.channels} do not match {self.levels} levels"
            )
        if len(self.expansion) < self.levels:
            raise ConfigurationError("expansion ratios must cover every level")

    def down_pairs(self):
        """(src, dst) with src finer than dst, canonical order."""
        return [(i, j) for j in range(1, self.levels) for i in range(j)]

    def up_pairs(self):
        """(src, dst) with src coarser than dst, canonical order."""
        return [(i, j) for j in range(self.levels - 1) for i in range(j + 1, self.levels)]


class Silo:
    """A built silo: one transform object per (src, dst) level pair.

    A silo is a tape block itself.  An expanding silo (``expands``) takes
    one level fewer than its spec: ``forward`` appends a zero coarsest
    level, and ``inverse`` and ``backward`` drop that level, which is
    reconstructed as numerical zeros, and its gradient.
    """

    def __init__(self, spec: SiloSpec, down: dict, up: dict, name: str = "silo",
                 expands: bool = False):
        self.spec = spec
        self.down = down      # (src, dst) -> transform, src < dst
        self.up = up          # (src, dst) -> transform, src > dst
        self.name = name
        self.expands = expands

    # -- construction ------------------------------------------------------
    @staticmethod
    def build(spec: SiloSpec, *, name: str = "silo",
              rng: np.random.Generator, dtype, expands: bool = False) -> "Silo":
        def make(kind, i, j):
            gap = abs(j - i)
            geometry = (dict(kernel=2 ** (gap + 1) + 1, stride=2 ** gap) if kind == "down"
                        else dict(kernel=3, upsample=2 ** gap))
            return MBConvTransform(
                f"{name}.{kind}{i}{j}", spec.channels[i], spec.channels[j], **geometry,
                expansion=spec.expansion[j],
                se_ratio=spec.se_ratio if j in spec.se_levels else None,
                rng=rng, dtype=dtype)
        down = {(i, j): make("down", i, j) for i, j in spec.down_pairs()}
        up = {(i, j): make("up", i, j) for i, j in spec.up_pairs()}
        return Silo(spec, down, up, name, expands)

    @staticmethod
    def build_scalar(levels: int, *, name: str = "scalar_silo",
                     rng: np.random.Generator, dtype=np.float64) -> "Silo":
        """All-transform-scalar silo on (1,1,1,1) levels, for exact oracles."""
        spec = SiloSpec(levels=levels, channels=(1,) * levels)
        down = {(i, j): ScalarGain(f"{name}.down{i}{j}", float(rng.standard_normal()), dtype)
                for i, j in spec.down_pairs()}
        up = {(i, j): ScalarGain(f"{name}.up{i}{j}", float(rng.standard_normal()), dtype)
              for i, j in spec.up_pairs()}
        return Silo(spec, down, up, name)

    # -- validation ----------------------------------------------------------
    def _outer(self, levels: list) -> list:
        """The levels outside the silo: without an expanding silo's zero level."""
        return levels[:-1] if self.expands else levels

    def _check_pyramid(self, p: FeaturePyramid) -> None:
        if p.num_levels != self.spec.levels:
            raise ConfigurationError(
                f"{self.name}: expected {self.spec.levels} levels, got {p.num_levels}"
            )
        if p.channels != tuple(self.spec.channels):
            raise ConfigurationError(
                f"{self.name}: expected channels {self.spec.channels}, got {p.channels}"
            )

    # -- the two halves ------------------------------------------------------
    def down_phase(self, x_levels, ctx=None, want_cache=False, order=None):
        """Intermediates from original inputs; contributions order-free."""
        return self._half_forward(self.down, x_levels, ctx, want_cache, order)

    def up_phase(self, m_levels, ctx=None, want_cache=False, order=None):
        """Outputs from intermediates; contributions order-free."""
        return self._half_forward(self.up, m_levels, ctx, want_cache, order)

    def _pairs(self, half) -> list:
        """One half's (src, dst) pairs in canonical order."""
        return self.spec.up_pairs() if half is self.up else self.spec.down_pairs()

    def _half_forward(self, half, levels, ctx, want_cache, order):
        """``levels[j]`` plus each ``half[(i, j)](levels[i])``.  Every
        argument is an input of the half, so the transforms may run in any
        ``order``; their outputs are summed in canonical order."""
        pairs = self._pairs(half)
        order = pairs if order is None else list(order)
        if sorted(order) != sorted(pairs):
            kind = "up" if half is self.up else "down"
            raise ConfigurationError(f"{self.name}: bad {kind}-half evaluation order")
        contrib, caches = {}, {}
        for i, j in order:
            if ctx:
                ctx.count(F_EVAL)
            contrib[(i, j)], c = half[(i, j)].forward(levels[i], ctx, want_cache)
            if want_cache:
                caches[(i, j)] = c
        out = list(levels)
        for i, j in pairs:  # fixed reduction order regardless of eval order
            out[j] = K.add(out[j], contrib.pop((i, j)))
        return out, caches

    # -- public API ------------------------------------------------------------
    def forward(self, p: FeaturePyramid, ctx: ExecContext | None = None,
                want_cache: bool = False, down_order=None, up_order=None):
        if self.expands:
            p = expanded_input(self, p)
        self._check_pyramid(p)
        x = list(p.levels)
        m, down_caches = self.down_phase(x, ctx, want_cache, down_order)
        out, up_caches = self.up_phase(m, ctx, want_cache, up_order)
        p_out = p.with_levels(out)
        cache = {"down": down_caches, "up": up_caches} if want_cache else None
        return p_out, cache

    def inverse(self, p_out: FeaturePyramid, ctx: ExecContext | None = None):
        """Reconstruct the input pyramid from the output pyramid.

        Unlike the forward halves, reconstruction is strictly ordered:
        intermediates are recovered coarsest-first (each subtraction needs
        the coarser intermediates already recovered), then inputs
        finest-first.  Transforms only ever run forward, as replays: no
        ctx means the ``BACKWARD`` phase, so no norm folds.  ``p_out`` is
        left as it was: the reconstruction runs on one copy of its levels.

        Returns (p_in, None), a pair like ``RevBlock.inverse``'s.
        """
        self._check_pyramid(p_out)
        levels = [Tensor(lv.data.copy()) for lv in p_out.levels]
        return p_out.with_levels(self._invert(levels, ctx)), None

    def _invert(self, levels, ctx):
        """Rebuild the input levels in the arrays of the output ``levels``,
        which the caller gives up: the intermediates, then the inputs."""
        for half in (self.up, self.down):
            for _ in self._undo(half, levels, ctx):
                pass
        return self._outer(levels)

    def _undo(self, half, levels, ctx, want_cache=False, registry=None):
        """Subtract one half's transforms back out of ``levels``, in place.

        The inverse's order, written once for ``inverse`` and a replaying
        ``backward``: the up half recovers intermediates coarsest-first, the
        down half inputs finest-first, each destination from sources already
        recovered.  Each transform's output is subtracted into the
        destination level's own array, in the order a new array per
        subtraction would take, so with the same bits.  A generator: after
        each subtraction it yields ``(pair, cache)``, and drops the cache
        before the next transform runs.  The cache is ``None`` unless
        ``want_cache``, and counted in ``registry`` (if any) while it lives.
        """
        ctx = ctx or ExecContext(phase=BACKWARD)
        n = self.spec.levels
        is_up = half is self.up
        for j in (range(n - 2, -1, -1) if is_up else range(1, n)):
            for i in (range(j + 1, n) if is_up else range(j)):
                ctx.count(F_EVAL)
                y, cache = half[(i, j)].forward(levels[i], ctx, want_cache)
                K.sub(levels[j], y)
                del y
                yield (i, j), counted(registry, cache, f"{self.name}.replay")
                del cache   # before the next transform runs: one cache alive

    def backward(self, cache, p_out, grad_out, ctx: ExecContext | None = None,
                 registry=None):
        """VJP through the silo, one transform at a time, from the forward's
        ``cache`` or, when it is ``None``, by replaying from ``p_out``.

        ``grad_out`` and the input gradients are lists of per-level
        gradient tensors.  Up-half VJPs fan gradient from outputs into
        intermediates and need only ``grad_out``; down-half VJPs fan it from
        intermediates into inputs, and need ``gm``, complete once the up
        half is done.  With a cache no transform is re-evaluated.  Without
        one, the step walks ``inverse``'s order: each transform replays with
        a replay cache (``MBConv.chunks``, given ``ctx`` in the ``BACKWARD``
        phase), its output is subtracted and its VJP taken at once, so one
        transform cache is alive at a time (RevNet's backward, Gomez et al.
        2017, Alg. 1).  The VJPs, their order and so the gradients' bits and
        key order are the same either way, given the same caches.
        ``registry`` (or ``None``) counts what the VJPs rebuild and each
        replay cache while it lives.

        ``cache``, ``p_out`` and ``grad_out`` are taken over: each VJP lets
        go of its cache's parts as it reads them, a replay rebuilds the
        intermediates, then the inputs, in ``p_out``'s arrays, and each
        input gradient is summed into ``grad_out``'s own array for its
        level, in the order a new array per sum would take, so with the same
        bits.  Up-half input gradients are summed into ``gm`` in
        ``up_pairs`` order, down-half ones into ``gx`` in ``down_pairs``
        order; ``gx`` is ``gm`` itself, since a down step writes ``gx[i]``
        for i < j only, and every down step that reads ``gm[i]`` (those into
        level i) has run by then.
        Parameter gradients come in ``up_pairs`` then ``down_pairs`` order.

        Returns (p_in, input gradients, parameter gradients); ``p_in`` is
        the rebuilt input when replayed, else ``None``.
        """
        if cache is None:
            self._check_pyramid(p_out)
            # the down half's replay starts once the up half's has recovered
            # the intermediates in ``levels``; it then recovers the inputs there
            levels = list(p_out.levels)
            up_steps = self._undo(self.up, levels, ctx, True, registry)
            down_steps = self._undo(self.down, levels, ctx, True, registry)
        else:
            steps = lambda half, caches: ((pair, caches[pair]) for pair in self._pairs(half))
            up_steps, down_steps = steps(self.up, cache["up"]), steps(self.down, cache["down"])
        g = list(grad_out)
        accumulate = lambda k, gin: np.add(g[k].data, gin.data, out=g[k].data)
        up = {}
        for pair, step_cache in up_steps:
            up[pair] = self.up[pair].backward(step_cache, grad_out[pair[1]], registry)
            del step_cache   # before the next step runs its transform
        grads: dict[str, np.ndarray] = {}
        for i, j in self.spec.up_pairs():       # up[i->j] consumed m[i]: gm
            gin, gr = up.pop((i, j))
            accumulate(i, gin)
            grads.update(gr)
        for (i, j), step_cache in down_steps:   # down[i->j] consumed x[i]: gx
            gin, gr = self.down[(i, j)].backward(step_cache, g[j], registry)
            accumulate(i, gin)
            grads.update(gr)
            del step_cache, gin   # before the next step runs its transform
        p_in = p_out.with_levels(self._outer(levels)) if cache is None else None
        return p_in, self._outer(g), grads

    def _transforms(self):
        """((src, dst), transform) of the down half, then of the up half,
        each in canonical order."""
        return [((i, j), half[(i, j)]) for half in (self.down, self.up)
                for i, j in self._pairs(half)]

    def parameters(self):
        return [kv for _, t in self._transforms() for kv in t.parameters()]

    def macs(self, level_shapes) -> int:
        return sum(t.macs(level_shapes[i]) for (i, _), t in self._transforms())


# ---------------------------------------------------------------------------
# pyramid expansion (silo that appends one coarser level)
# ---------------------------------------------------------------------------

def expanded_input(silo: Silo, p: FeaturePyramid) -> FeaturePyramid:
    """Append an all-zero coarsest level sized for ``silo``'s full pyramid."""
    n = silo.spec.levels
    if p.num_levels != n - 1:
        raise ConfigurationError(
            f"{silo.name}: expansion expects {n - 1} input levels, got {p.num_levels}"
        )
    last = p.levels[-1]
    if p.require_halving and (last.h % 2 or last.w % 2):
        raise ConfigurationError(
            f"{silo.name}: cannot halve spatial {(last.h, last.w)} for the new level"
        )
    zshape = (last.n, silo.spec.channels[n - 1], last.h // 2, last.w // 2)
    zero = Tensor.zeros(zshape, dtype=p.dtype)
    return p.with_levels(list(p.levels) + [zero])


def expand_pyramid(silo: Silo, p: FeaturePyramid,
                   ctx: ExecContext | None = None, want_cache: bool = False):
    """Run a non-expanding silo as a pyramid expander: inject a zero
    coarsest level, fuse.

    The zero level is reconstructed (as numerical zeros) by the ordinary
    silo inverse, which is what keeps expansion inside the reversible chain.
    A silo built with ``expands=True`` does this in its own ``forward``,
    which is what the backbone uses; this function stays for acceptance
    c7, which imports it from here.
    """
    return silo.forward(expanded_input(silo, p), ctx, want_cache)


# ---------------------------------------------------------------------------
# two-stream reversible residual block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RevBlockSpec:
    """Channel split and residual-branch geometry for a RevBlock."""

    channels_a: int
    channels_b: int
    kernel: int = 3
    expansion: int = 1
    se_ratio: float | None = None

    def __post_init__(self):
        if self.channels_a < 1 or self.channels_b < 1:
            raise ConfigurationError("RevBlock needs two non-empty channel groups")


class RevBlock:
    """Additive two-stream coupling on one tensor: a two-level silo at one
    resolution.

    Forward: y_a = x_a + F(x_b); y_b = x_b + G(y_a) (RevNet, Gomez et al.
    2017).  The channels split into x_a and x_b, and the silo runs on the
    levels (x_b, x_a): its one down transform F gives m_1 = y_a, its one up
    transform G gives o_0 = y_b.  Inverse, backward and their arithmetic
    are the silo's.
    """

    def __init__(self, spec: RevBlockSpec, f_transform, g_transform, name: str = "revblock"):
        self.spec = spec
        self.f = f_transform   # maps channels_b -> channels_a
        self.g = g_transform   # maps channels_a -> channels_b
        self.name = name
        self.silo = Silo(SiloSpec(2, (spec.channels_b, spec.channels_a)),
                         {(0, 1): f_transform}, {(1, 0): g_transform}, name)

    @staticmethod
    def build(spec: RevBlockSpec, *, name: str = "revblock",
              rng: np.random.Generator, dtype) -> "RevBlock":
        make = lambda tag, cin, cout: MBConvTransform(
            f"{name}.{tag}", cin, cout, kernel=spec.kernel, expansion=spec.expansion,
            se_ratio=spec.se_ratio, rng=rng, dtype=dtype)
        return RevBlock(spec,
                        make("f", spec.channels_b, spec.channels_a),
                        make("g", spec.channels_a, spec.channels_b), name)

    def _split(self, x: Tensor) -> FeaturePyramid:
        """The silo levels (x_b, x_a) of a tensor, as copies: at batch 1 a
        channel slice is already contiguous, so only a copy keeps ``x``
        safe from a level that is rebuilt in place."""
        ca = self.spec.channels_a
        if x.c != ca + self.spec.channels_b:
            raise ConfigurationError(
                f"{self.name}: expected {ca + self.spec.channels_b} channels, got {x.c}"
            )
        return FeaturePyramid([Tensor(x.data[:, ca:].copy()),
                               Tensor(x.data[:, :ca].copy())],
                              require_halving=False)

    @staticmethod
    def _join(levels) -> Tensor:
        b, a = levels
        return Tensor(np.concatenate([a.data, b.data], axis=1))

    def forward(self, x: Tensor, ctx: ExecContext | None = None, want_cache: bool = False):
        y, cache = self.silo.forward(self._split(x), ctx, want_cache)
        return self._join(y), cache

    def inverse(self, y: Tensor, ctx: ExecContext | None = None):
        """Returns (x, None), a pair like ``Silo.inverse``'s.  The levels
        that ``_split`` copies out of ``y`` are rebuilt in place."""
        return self._join(self.silo._invert(self._split(y).levels, ctx)), None

    def backward(self, cache, gy: Tensor, registry=None):
        _, gx, grads = self.silo.backward(cache, None, self._split(gy).levels,
                                          None, registry)
        return self._join(gx), grads

    def parameters(self):
        return self.silo.parameters()
