"""Backbone assembly and toy training.

A backbone is a reversible chain — space-to-depth stem, three pyramid
expansion silos, then ``extra_depth`` full fusion silos — followed by a
conventional (non-reversible) neck + classification head, whose eight
stages are tape blocks too (``HeadStage``).  A training step runs one
``Tape`` over both, from the stem to the logits, in either backward mode.
Stored, every block keeps its VJP cache.  In recompute mode a head stage
keeps only the level it maps, and replays itself from it just before its
VJP; the tape keeps the chain output for the chain's replay.  Every
block's bytes are counted in the tape's live-bytes registry, so measured
peaks reflect the whole step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels as K
from .context import BACKWARD, FORWARD, ExecContext
from .coupling import FeaturePyramid, Silo, SiloSpec
from .engine import Tape, count_forward_evals
from .errors import ConfigurationError, DivergenceError
from .layers import MBConv, Conv2d, BatchNorm, Dense, counted
from .tensor import Tensor, precision_dtype

STEM_BLOCK = 4                      # stem reduces spatial by 4 => 16x channels
TOTAL_STRIDE = 32                   # stem /4 then three further halvings
CHANNEL_QUANTUM = 16                # all pyramid widths are multiples of 16

# Neck output channels relative to the pyramid widths; at full scale
# (48, 64, 80, 160) this lands exactly on the 48/64/128/320 targets.
NECK_RATIOS = (1.0, 1.0, 1.6, 2.0)
NECK_QUANTUM = 8
HEAD_WIDTH_FACTOR = 4               # final 1x1 conv widens the last neck level


def scale_channels(base: int, multiplier: float) -> int:
    """Scale a channel count, staying on the CHANNEL_QUANTUM grid."""
    return max(CHANNEL_QUANTUM,
               CHANNEL_QUANTUM * round(base * multiplier / CHANNEL_QUANTUM))


def neck_channels(pyramid_channels) -> tuple[int, ...]:
    return tuple(
        max(NECK_QUANTUM, NECK_QUANTUM * round(c * r / NECK_QUANTUM))
        for c, r in zip(pyramid_channels, NECK_RATIOS)
    )


@dataclass(frozen=True)
class BackboneConfig:
    channels: tuple[int, int, int, int] = (48, 64, 80, 160)
    width_multiplier: float = 1.0
    extra_depth: int = 2
    resolution: tuple[int, int] | int = 224
    num_classes: int = 1000
    in_channels: int = 3
    precision: str = "single"
    seed: int = 0

    def __post_init__(self):
        if len(self.channels) != 4 or any(c < 1 for c in self.channels):
            raise ConfigurationError(f"need 4 positive channel counts, got {self.channels}")
        h, w = self.resolution_hw
        if h % TOTAL_STRIDE or w % TOTAL_STRIDE:
            raise ConfigurationError(
                f"resolution {(h, w)} must be divisible by {TOTAL_STRIDE}"
            )
        eff = self.effective_channels
        for c in eff:
            if c % CHANNEL_QUANTUM:
                raise ConfigurationError(
                    f"scaled channels {eff} must be multiples of {CHANNEL_QUANTUM}"
                )
        if self.in_channels < 1:
            raise ConfigurationError("in_channels must be >= 1")
        stem_out = CHANNEL_QUANTUM * self.in_channels  # one copy of the input
        if eff[0] % stem_out:
            raise ConfigurationError(
                f"level-0 channels {eff[0]} must be a multiple of "
                f"{stem_out} (= {STEM_BLOCK}^2 x in_channels) so the stem "
                "can reach them by duplicating input channels"
            )
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.extra_depth < 0:
            raise ConfigurationError("extra_depth must be >= 0")
        precision_dtype(self.precision)  # validates

    @property
    def resolution_hw(self) -> tuple[int, int]:
        r = self.resolution
        return (r, r) if isinstance(r, int) else (int(r[0]), int(r[1]))

    @property
    def effective_channels(self) -> tuple[int, ...]:
        if self.width_multiplier == 1.0:
            return tuple(self.channels)
        return tuple(scale_channels(c, self.width_multiplier) for c in self.channels)

    @property
    def stem_duplication(self) -> int:
        return self.effective_channels[0] // (CHANNEL_QUANTUM * self.in_channels)

    @property
    def dtype(self):
        return precision_dtype(self.precision)

    def pyramid_shapes(self, batch: int = 1) -> list[tuple[int, int, int, int]]:
        h, w = self.resolution_hw
        return [
            (batch, c, h // (STEM_BLOCK * 2 ** k), w // (STEM_BLOCK * 2 ** k))
            for k, c in enumerate(self.effective_channels)
        ]


# ---------------------------------------------------------------------------
# stem
# ---------------------------------------------------------------------------

class StemStage:
    """Channel duplication followed by space-to-depth — exactly invertible.

    Duplication widens narrow inputs so downstream widths stay reachable
    without losing reversibility; inversion drops the extra copies, and the
    backward pass sums their gradients.
    """

    def __init__(self, in_channels: int, duplication: int):
        if duplication < 1:
            raise ConfigurationError("stem duplication must be >= 1")
        self.in_channels = in_channels
        self.duplication = duplication
        self.name = "stem"

    def _check(self, p: FeaturePyramid, channels: int) -> Tensor:
        if p.num_levels != 1:
            raise ConfigurationError("stem operates on a single-level pyramid")
        x = p.levels[0]
        if x.c != channels:
            raise ConfigurationError(f"stem expected {channels} channels, got {x.c}")
        return x

    def forward(self, p, ctx=None, want_cache=False):
        x = self._check(p, self.in_channels)
        d = x.data
        if self.duplication > 1:
            d = np.concatenate([d] * self.duplication, axis=1)
        y = K.space_to_depth(Tensor(d), STEM_BLOCK)
        return p.with_levels([y]), (() if want_cache else None)

    def inverse(self, p_out, ctx=None):
        y = self._check(p_out, self.out_channels)
        wide = K.depth_to_space(y, STEM_BLOCK)
        x = Tensor(np.ascontiguousarray(wide.data[:, : self.in_channels]))
        return p_out.with_levels([x]), None

    def backward(self, cache, p_out, grad_out, ctx=None, registry=None):
        """Returns (p_in, [grad_in], {}); ``p_in`` is ``p_out`` inverted when
        ``cache`` is ``None``, else ``None``."""
        g = K.depth_to_space(grad_out[0], STEM_BLOCK)
        if self.duplication > 1:    # the copies' gradients, summed in order
            c = self.in_channels
            g = Tensor(sum((g.data[:, k * c : (k + 1) * c]
                            for k in range(1, self.duplication)), g.data[:, :c]).copy())
        p_in = self.inverse(p_out, ctx)[0] if cache is None else None
        return p_in, [g], {}

    def parameters(self):
        return []

    @property
    def out_channels(self) -> int:
        return self.in_channels * self.duplication * STEM_BLOCK * STEM_BLOCK


# ---------------------------------------------------------------------------
# neck + classification head (conventional: stored, or replayed per stage)
# ---------------------------------------------------------------------------

class ClassifierTail:
    """1x1 conv -> batch norm -> hard-swish -> global average pool -> dense:
    the last aggregate to the logits, an (n, classes, 1, 1) tensor."""

    def __init__(self, prefix: str, in_c: int, num_classes: int, *,
                 rng: np.random.Generator, dtype):
        width = HEAD_WIDTH_FACTOR * in_c
        self.name = f"{prefix}.tail"
        self.final_conv = Conv2d(f"{prefix}.final", in_c, width, 1, rng=rng, dtype=dtype)
        self.final_norm = BatchNorm(f"{prefix}.final_norm", width, dtype=dtype)
        self.classifier = Dense(f"{prefix}.classifier", width, num_classes,
                                rng=rng, dtype=dtype)

    def forward(self, agg: Tensor, ctx: ExecContext | None = None):
        z, conv_cache = self.final_conv.forward(agg)
        z, norm_cache = self.final_norm.forward(z, ctx)
        z = K.hard_swish(z)
        pooled = K.global_avg_pool(z)
        flat = pooled.data.reshape(pooled.n, pooled.c)
        logits, dense_cache = self.classifier.forward(flat)
        return (Tensor(logits.reshape(*logits.shape, 1, 1)),
                [conv_cache, norm_cache, z.shape, dense_cache])

    def backward(self, cache, gy: Tensor, registry=None):
        """VJP of ``forward``; lets go of each cache part, as
        ``MBConv.backward`` does, once its last reader has run."""
        grads: dict[str, np.ndarray] = {}
        gflat, gr = self.classifier.backward(cache[3], gy.data[:, :, 0, 0])
        grads.update(gr)
        cache[3] = None
        n, c = gflat.shape
        gz = K.global_avg_pool_backward(cache[2], Tensor(gflat.reshape(n, c, 1, 1)))
        gz = K.batch_norm_hard_swish_backward(cache[1], self.final_norm.state, gz)
        gz, gr = self.final_norm.backward(cache[1], gz)
        grads.update(gr)
        cache[1] = None
        gagg, gr = self.final_conv.backward(cache[0], gz)
        grads.update(gr)
        cache[0] = None
        return gagg, grads

    def parameters(self):
        return [pair for layer in (self.final_conv, self.final_norm, self.classifier)
                for pair in layer.parameters()]


class HeadStage:
    """A head stage as a (non-invertible) tape block: maps pyramid level
    ``level`` with ``stage`` in place or, with ``fold``, adds the result
    into the next level and puts the sum (an aggregate) in place of both.
    Its cache is ``[stage's VJP cache, None]``, or ``[None, checkpoint]``
    when not asked for one, the checkpoint the level it maps; ``backward``
    pops each as it reads it, and first replays the stage from a
    checkpoint (per-segment checkpointing, Chen et al. 2016, arXiv
    1604.06174), under the ``BACKWARD`` phase that folds no running
    average: the same VJP, the same bits, either way."""

    def __init__(self, stage, level: int, fold: bool = False):
        self.stage, self.level, self.fold = stage, level, fold
        self.name = stage.name

    def forward(self, p: FeaturePyramid, ctx=None, want_cache=False):
        levels = list(p.levels)
        x = levels[self.level]
        y, cache = self.stage.forward(x, ctx)
        if self.fold:
            y = K.add(y, levels.pop(self.level + 1))
        levels[self.level] = y
        return p.with_levels(levels), ([cache, None] if want_cache else [None, x])

    def backward(self, cache, p_out, grad_out, ctx=None, registry=None):
        x = cache.pop()
        stage_cache = cache.pop()
        if stage_cache is None:
            stage_cache = counted(registry, self.stage.forward(x, ctx)[1],
                                  f"{self.name}.cache")
        del x        # the stage cache holds it for its last reader
        gx, grads = self.stage.backward(stage_cache, grad_out[self.level], registry)
        if self.fold:       # the folded level's gradient is the sum's
            grad_out.insert(self.level, gx)
        else:
            grad_out[self.level] = gx
        return None, grad_out, grads


class ClassifierHead:
    """Neck MBConv per level, strided-MBConv aggregation cascade, classifier.

    The finest map is transformed, downsampled by 2 with a strided MBConv and
    added to the next neck output; repeated until everything lands on the
    coarsest grid, then 1x1 conv -> global average pool -> dense.  The sums
    are the aggregates agg_0..agg_3: agg_0 is neck0's output, agg_{i+1} is
    down_i(agg_i) plus neck_{i+1}'s output, and the tail (the 1x1 conv
    through the dense) reads agg_3.  ``blocks`` are the eight stages as
    tape blocks in forward order: neck3..neck0, down0..down2, the tail.
    """

    def __init__(self, pyramid_channels, num_classes: int, *,
                 rng: np.random.Generator, dtype, name: str = "head"):
        if len(pyramid_channels) != len(NECK_RATIOS):
            raise ConfigurationError(
                f"head expects {len(NECK_RATIOS)} pyramid levels, "
                f"got {len(pyramid_channels)}"
            )
        neck = neck_channels(pyramid_channels)
        self.name = name
        self.necks = [
            MBConv(f"{name}.neck{i}", c_in, c_out, kernel=3, stride=1, padding=1,
                   expansion=1, rng=rng, dtype=dtype)
            for i, (c_in, c_out) in enumerate(zip(pyramid_channels, neck))
        ]
        self.downs = [
            MBConv(f"{name}.down{i}", neck[i], neck[i + 1], kernel=5, stride=2,
                   padding=2, expansion=1, rng=rng, dtype=dtype)
            for i in range(len(neck) - 1)
        ]
        self.tail = ClassifierTail(name, neck[-1], num_classes, rng=rng, dtype=dtype)
        self.blocks = ([HeadStage(b, i) for i, b in reversed(list(enumerate(self.necks)))]
                       + [HeadStage(b, 0, fold=True) for b in self.downs]
                       + [HeadStage(self.tail, 0)])

    def forward(self, p: FeaturePyramid, ctx: ExecContext | None = None):
        """The logits, (n, classes), and ``None``: a forward that keeps no
        cache (training runs ``blocks`` on the tape)."""
        for block in self.blocks:
            p, _ = block.forward(p, ctx)
        return p.levels[0].data[:, :, 0, 0], None

    def parameters(self):
        return [pair for stage in self.necks + self.downs + [self.tail]
                for pair in stage.parameters()]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class Model:
    config: BackboneConfig
    blocks: list       # the reversible portion: the stem, then silos
    head: ClassifierHead

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for b in self.blocks:
            out.extend(b.parameters())
        out.extend(self.head.parameters())
        return out

    @property
    def silos(self) -> list[Silo]:
        return [b for b in self.blocks if isinstance(b, Silo)]


def build(config: BackboneConfig) -> Model:
    """Assemble stem + 3 expansion silos + extra_depth fusion silos + head."""
    rng = np.random.default_rng(config.seed)
    dtype = config.dtype
    eff = config.effective_channels
    blocks: list = [StemStage(config.in_channels, config.stem_duplication)]
    for k in range(1, 4):  # grow the pyramid one level at a time
        spec = SiloSpec(levels=k + 1, channels=eff[: k + 1])
        blocks.append(Silo.build(spec, name=f"expand{k}", rng=rng, dtype=dtype,
                                 expands=True))
    full = SiloSpec(levels=4, channels=eff)
    for i in range(config.extra_depth):
        blocks.append(Silo.build(full, name=f"fuse{i}", rng=rng, dtype=dtype))
    head = ClassifierHead(eff, config.num_classes, rng=rng, dtype=dtype)
    return Model(config, blocks, head)


def image_pyramid(images: np.ndarray, dtype) -> FeaturePyramid:
    return FeaturePyramid([Tensor(np.ascontiguousarray(images, dtype=dtype))])


# ---------------------------------------------------------------------------
# loss / optimizer / training
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy, formed in float64 (a float32 log of a softmax
    sum near 1 moves in steps of 6e-8, a memorised batch's whole loss), and
    its gradient with respect to the logits, in their dtype."""
    n = logits.shape[0]

    def log_softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    loss = float(-log_softmax(logits.astype(np.float64))[np.arange(n), labels].mean())
    grad = np.exp(log_softmax(logits))
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(logits.dtype)


class SGDMomentum:
    """Classic momentum SGD: v <- mu v + g; p <- p - lr v (in place)."""

    def __init__(self, params: list[tuple[str, np.ndarray]], lr: float,
                 momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(arr) for name, arr in params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, arr in self.params:
            g = grads.get(name)
            if g is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += g
            arr -= (self.lr * v).astype(arr.dtype, copy=False)


@dataclass
class StepRecord:
    step: int
    loss: float
    forward_evals: int
    backward_evals: int
    peak_bytes: int


@dataclass
class TrainRecord:
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [s.loss for s in self.steps]


def step_gradients(model: Model, mode, images: np.ndarray, labels: np.ndarray,
                   step_key: object = 0):
    """One full forward+backward (no update): loss, gradients, measurements.

    Returns (loss, grads, registry, counters), the one step body that
    training, gradient-parity checks and memory sweeps share: one tape
    from the stem to the logits, whose VJP order (the head, then the
    chain) the grads follow.  A non-finite loss raises
    ``DivergenceError``.  Each activation is let go at its last use: the
    model-dtype copy of ``images`` once the stem has run, the logits once
    the loss is formed, every other one as the tape lets go of it.
    """
    tape = Tape(model.blocks + model.head.blocks, mode=mode)
    out = tape.forward(image_pyramid(images, model.config.dtype), step_key=step_key)
    loss, glogits = softmax_cross_entropy(out.levels[0].data[:, :, 0, 0], labels)
    del out
    if not math.isfinite(loss):
        raise DivergenceError(step_key)
    glogits = [Tensor(glogits[:, :, None, None])]   # the tape empties the list
    result = tape.backward(glogits)
    return loss, result.param_grads, tape.registry, tape.counters


def train_toy(config: BackboneConfig, dataset, mode, steps: int, seed: int,
              lr: float = 0.05, batch_size: int = 8) -> TrainRecord:
    """Deterministic toy training run; same seed + same mode => same record.

    ``dataset`` provides ``images`` (m, c, h, w) and integer ``labels`` (m,).
    Batches cycle through the dataset in a fixed order so the stored and
    recompute runs see identical data.  Each step is ``step_gradients``
    followed by an SGD-momentum update.
    """
    model = build(replace(config, seed=seed))
    opt = SGDMomentum(model.parameters(), lr=lr)
    m = dataset.images.shape[0]
    record = TrainRecord()

    for t in range(steps):
        idx = [(t * batch_size + i) % m for i in range(batch_size)]
        loss, grads, registry, counters = step_gradients(
            model, mode, dataset.images[idx], dataset.labels[idx], step_key=t)
        opt.step(grads)

        evals = count_forward_evals(counters)
        record.steps.append(StepRecord(
            step=t, loss=loss,
            forward_evals=evals[FORWARD], backward_evals=evals[BACKWARD],
            peak_bytes=registry.peak,
        ))
    return record
