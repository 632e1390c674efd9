"""The revfuse benchmark's workloads and the closed loop that measures them.

Every workload runs one SGD step (``backbone.step_gradients`` plus
``SGDMomentum.step``) in two backward modes, ``stored`` and ``recompute``,
interleaved step by step from one process.  The two modes train two models
built from the same seed and fed the same batches; their per-step losses
must agree (c8).  ``Bench.roundtrip_error`` inverts a model's chain
(``Tape.forward``, then ``engine.invert_chain`` back to the input, with
batch norm in train mode on both sides) to report inverse drift.

The program sees only the images and labels made from the workload seed.
Library calls go through module attributes (``backbone.step_gradients``,
not a from-import) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import revfuse
from revfuse import backbone, costmodel, dataset, engine
from revfuse.context import BACKWARD, F_EVAL, FORWARD
from revfuse.errors import RevfuseError

MODES = ("stored", "recompute")

# A reconstruction this far off means the inverse is broken, not drifting:
# drift is reported as coupling.recon_rel_err and not gated (float32 at
# extra_depth 8 already exceeds verify-inverse's 1e-5).
BROKEN_INVERSE_REL_ERR = 1e-3

# Timed pairs a run holds at least, whatever --seconds says (an s0-128-train
# pair takes about 4 s).  Past that, no pair starts that would end after
# --seconds if it took as long as the last one.
MIN_PAIRS = 3

# c8's optimizer settings, for both training workloads
LR = 0.05
MOMENTUM = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    channels: tuple[int, int, int, int]
    resolution: int
    extra_depth: int
    precision: str
    in_channels: int
    num_classes: int
    batch: int
    samples: int                    # size of the synthetic set batches cycle through
    parity_rel_tol: float           # stored-vs-recompute loss parity
    traced_pairs: int               # stored+recompute pairs in the traced pass
    setup_reps: int                 # set-ups per run; setup_s is their median

    def config(self, seed: int) -> backbone.BackboneConfig:
        return backbone.BackboneConfig(
            channels=self.channels, extra_depth=self.extra_depth,
            resolution=self.resolution, num_classes=self.num_classes,
            in_channels=self.in_channels, precision=self.precision, seed=seed)


WORKLOADS = {
    w.name: w for w in (
        # c8's toy model: tiny tensors, so per-call Python work dominates
        Workload("toy-train", (16, 16, 16, 16), 32, 1, "double",
                 in_channels=1, num_classes=4, batch=8, samples=64,
                 parity_rel_tol=1e-9, traced_pairs=8, setup_reps=5),
        # S0 widths at 128 px, batch 2: large activations, so kernel
        # arithmetic dominates
        Workload("s0-128-train", (48, 64, 80, 160), 128, 2, "single",
                 in_channels=3, num_classes=10, batch=2, samples=4,
                 parity_rel_tol=1e-3, traced_pairs=2, setup_reps=3),
    )
}


def rel_err(rec: np.ndarray, x: np.ndarray) -> float:
    """Max abs error relative to max abs input (as ``verify-inverse``)."""
    return float(np.max(np.abs(rec - x))) / max(float(np.max(np.abs(x))), 1e-30)


class Checks:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


@dataclass
class OpResult:
    seconds: float
    value: float            # loss (train) or relative reconstruction error
    peak_bytes: int         # LiveBytesRegistry.peak
    f_evals: tuple[int, int]


class Bench:
    """One set-up of a workload: data, models and the operation they run."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        t0 = perf_counter()
        data = dataset.make_synthetic_dataset(
            w.num_classes, w.samples, w.resolution, w.in_channels, seed=seed)
        self.make_s = perf_counter() - t0
        self.images, self.labels = data.images, data.labels
        cfg = w.config(seed)
        self.models = {mode: backbone.build(cfg) for mode in MODES}
        self.opts = {mode: backbone.SGDMomentum(m.parameters(), lr=LR,
                                                momentum=MOMENTUM)
                     for mode, m in self.models.items()}
        # one step without an update, so both trajectories start equal
        backbone.step_gradients(self.models["stored"], "stored",
                                *self._batch(0), step_key="warm-up")
        self.setup_s = perf_counter() - t0
        self.expected_f_evals = sum(
            len(s.spec.down_pairs()) + len(s.spec.up_pairs())
            for s in self.models["stored"].silos)

    def _batch(self, t):
        idx = [(t * self.w.batch + i) % self.w.samples for i in range(self.w.batch)]
        return self.images[idx], self.labels[idx]

    def op(self, mode: str, t: int):
        """Run one timed SGD step; returns (seconds, loss, peak, counters)."""
        t0 = perf_counter()
        loss, grads, registry, counters = backbone.step_gradients(
            self.models[mode], mode, *self._batch(t), step_key=t)
        self.opts[mode].step(grads)
        return perf_counter() - t0, loss, registry.peak, counters

    def roundtrip_error(self, model) -> float:
        """Relative error of inverting ``model``'s chain on the first batch."""
        images, _ = self._batch(0)
        x = revfuse.Tensor(np.ascontiguousarray(images, dtype=model.config.dtype))
        tape = engine.Tape(model.blocks, mode="recompute")
        out = tape.forward(revfuse.FeaturePyramid([x]), step_key="recon", train=True)
        ctx = revfuse.ExecContext(tape.counters, BACKWARD, "recon", train=True)
        rec = engine.invert_chain(model.blocks, out, ctx)
        tape.discard()
        return rel_err(rec.levels[0].data, x.data)

    def checked_op(self, mode: str, t: int, checks: Checks) -> OpResult | None:
        """One operation with its correctness checks; None when it raised.

        An op that returns is timed even when a check fails on its output.
        """
        checks.attempted += 1
        try:
            seconds, value, peak, counters = self.op(mode, t)
        except (RevfuseError, FloatingPointError) as e:
            checks.fail(f"{mode} op {t}: {type(e).__name__}: {e}")
            return None
        f_evals = (counters.get(FORWARD, F_EVAL), counters.get(BACKWARD, F_EVAL))
        want = self.expected_f_evals
        want_bwd = 0 if mode == "stored" else want
        if f_evals != (want, want_bwd):
            checks.fail(f"{mode} op {t}: f_evals {f_evals}, contract ({want}, {want_bwd})")
        elif not math.isfinite(value):
            checks.fail(f"{mode} op {t}: non-finite loss")
        return OpResult(seconds, value, peak, f_evals)

    def pair(self, t: int, checks: Checks, after_op=None) -> dict[str, OpResult | None]:
        """Both modes on step ``t``; checks loss parity between them.

        ``after_op(mode, result)`` runs after each op, before the next starts.
        """
        res = {}
        for mode in MODES:
            res[mode] = self.checked_op(mode, t, checks)
            if after_op is not None:
                after_op(mode, res[mode])
        s, r = res["stored"], res["recompute"]
        if s is not None and r is not None:
            rel = abs(s.value - r.value) / max(abs(s.value), 1e-30)
            if rel > self.w.parity_rel_tol:
                checks.fail(f"step {t}: loss parity {rel:.3e} > {self.w.parity_rel_tol:g}")
        return res


def set_up(w: Workload, seed: int) -> tuple[Bench, list[float], list[float]]:
    """Set up ``setup_reps`` times; returns the last set-up and all timings."""
    benches = [Bench(w, seed) for _ in range(w.setup_reps)]
    return (benches[-1], [b.setup_s for b in benches], [b.make_s for b in benches])


def timed_loop(bench: Bench, seconds: float, checks: Checks):
    """Closed loop of interleaved pairs for ``seconds``; results per mode."""
    min_pairs = max(MIN_PAIRS, bench.w.traced_pairs)
    results: dict[str, list[OpResult | None]] = {mode: [] for mode in MODES}
    start = perf_counter()
    pair_s = 0.0
    t = 0
    while t < min_pairs or perf_counter() - start + pair_s <= seconds:
        t0 = perf_counter()
        for mode, r in bench.pair(t, checks).items():
            results[mode].append(r)
        pair_s = perf_counter() - t0
        t += 1
    return results, t


def heap_pass(bench: Bench, t: int, checks: Checks) -> dict[str, int]:
    """tracemalloc peak of one op per mode, above what was live before it."""
    peaks = {}
    base = 0

    def after_op(mode, result):
        nonlocal base
        current, peak = tracemalloc.get_traced_memory()
        if result is not None:
            peaks[mode] = peak - base
        tracemalloc.reset_peak()
        base = current

    tracemalloc.start()
    try:
        bench.pair(t, checks, after_op)
    finally:
        tracemalloc.stop()
    return peaks


def completed(results: list[OpResult | None]) -> list[OpResult]:
    return [r for r in results if r is not None]


def p50(results: list[OpResult | None]) -> float:
    return statistics.median(r.seconds for r in completed(results))


def cost_model(bench: Bench) -> tuple[int, int, float]:
    """(reversible MACs, head MACs, predicted recompute/stored time ratio).

    A stored step costs one forward and a two-unit backward per block
    (``compute_cost_model``), a recompute step adds one forward replay; the
    head is always stored.
    """
    items = costmodel.model_costs(bench.models["stored"], batch=bench.w.batch)
    rev = sum(i.macs for i in items if i.component != "head")
    head = sum(i.macs for i in items if i.component == "head")
    depth = len(bench.models["stored"].silos)
    unit = rev / depth
    stored = sum(costmodel.compute_cost_model(costmodel.SGD_BASELINE, depth))
    recompute = sum(costmodel.compute_cost_model(costmodel.REVERSIBLE, depth))
    return rev, head, (recompute * unit + 3 * head) / (stored * unit + 3 * head)
