"""Analytic cost models: memory/compute complexity laws, the published
scale ladder, and exact MAC/parameter counting for built models.

MAC conventions (these make the counts reproducible): one MAC is one
multiply-accumulate; a convolution costs out_elems * in_channels_per_group *
kh * kw, a dense layer in_features * out_features per sample, squeeze-excite
counts its two dense stages.  Bias additions, batch norm, activations,
elementwise adds, pooling, and bilinear interpolation count as 0 MACs.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .backbone import Model, scale_channels
from .errors import ConfigurationError

SGD_BASELINE = "sgd_baseline"
CHECKPOINTING = "checkpointing"
REVERSIBLE = "reversible"
METHODS = (SGD_BASELINE, CHECKPOINTING, REVERSIBLE)


def activation_memory_model(method: str, depth: int, unit_bytes: float = 1.0) -> float:
    """Peak activation bytes for a depth-D chain under a training method,
    one block's activations live at a time: baseline D, checkpointing
    sqrt(D), reversible 1, scaled by the per-layer unit.
    """
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {method!r}")
    d = float(depth)
    factor = {SGD_BASELINE: d, CHECKPOINTING: math.sqrt(d), REVERSIBLE: 1.0}[method]
    return unit_bytes * factor


def compute_cost_model(method: str, depth: int) -> tuple[int, int]:
    """(forward_units, backward_units) of compute for a depth-D chain.

    One unit is one block's forward evaluation; a backward (VJP) traversal
    costs two units per block.  The recompute surcharge of the re-executing
    methods is attributed to the forward column: baseline (D, 2D),
    checkpointing (2D, 2D), reversible (2D, 2D).
    """
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {method!r}")
    fwd = depth if method == SGD_BASELINE else 2 * depth
    return fwd, 2 * depth


def activation_ratio(cfg_a: tuple[float, int, int], cfg_b: tuple[float, int, int]) -> float:
    """Activation-footprint ratio between two (m_w, resolution, d) configs.

    Footprint scales linearly in width and depth and quadratically in
    resolution: (m_a/m_b) * (res_a/res_b)^2 * (d_a/d_b).
    """
    (ma, ra, da), (mb, rb, db) = cfg_a, cfg_b
    if min(ma, ra, da, mb, rb, db) <= 0:
        raise ConfigurationError("activation_ratio needs positive fields")
    return (ma / mb) * (ra / rb) ** 2 * (da / db)


# ---------------------------------------------------------------------------
# scale ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleRow:
    """One row of the published scale ladder.

    ``m_w`` is stored at two decimals (the precision the activation-ratio
    arithmetic uses); ``displayed_m_w`` is the one-decimal form the ladder
    table prints.
    """

    name: str
    m_w: float
    d: int
    resolution: int

    @property
    def displayed_m_w(self) -> float:
        return round(self.m_w, 1)

    def channels(self, base=(48, 64, 80, 160)) -> tuple[int, ...]:
        return tuple(scale_channels(c, self.m_w) for c in base)

    def as_cfg(self) -> tuple[float, int, int]:
        return (self.m_w, self.resolution, self.d)


SCALE_TABLE = (
    ScaleRow("S0", 1.0, 2, 224),
    ScaleRow("S1", 1.33, 2, 256),
    ScaleRow("S2", 2.0, 2, 256),
    ScaleRow("S3", 2.67, 3, 288),
    ScaleRow("S4", 4.0, 4, 320),
    ScaleRow("S5", 5.33, 4, 352),
    ScaleRow("S6", 6.67, 5, 352),
)


def scale_table() -> tuple[ScaleRow, ...]:
    return SCALE_TABLE


def scale_row(name: str) -> ScaleRow:
    for row in SCALE_TABLE:
        if row.name == name:
            return row
    raise ConfigurationError(
        f"unknown scale row {name!r}; known: {[r.name for r in SCALE_TABLE]}"
    )


# ---------------------------------------------------------------------------
# exact counting for built models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostItem:
    component: str
    macs: int
    params: int


def _params_of(stage) -> int:
    return sum(arr.size for _, arr in stage.parameters())


def _head_macs(head, level_shapes) -> int:
    """The head's stages' MACs, each at the shape of the level it maps."""
    total, shapes = 0, list(level_shapes)
    for b in head.blocks:
        total += b.stage.macs(shapes[b.level])
        shapes[b.level] = b.stage.out_shape(shapes[b.level])
        if b.fold:
            del shapes[b.level + 1]
    return total


def model_costs(model: Model, batch: int = 1) -> list[CostItem]:
    """Per-component exact MAC and parameter counts for a built model."""
    shapes = model.config.pyramid_shapes(batch=batch)
    items = [CostItem("stem", 0, 0)]  # permutation + duplication: no MACs, no params
    for silo in model.silos:
        level_shapes = shapes[: silo.spec.levels]
        items.append(CostItem(silo.name, silo.macs(level_shapes), _params_of(silo)))
    items.append(CostItem("head", _head_macs(model.head, shapes),
                          _params_of(model.head)))
    return items


def mac_count(model: Model, batch: int = 1) -> int:
    return sum(item.macs for item in model_costs(model, batch))


def param_count(model: Model) -> int:
    return sum(arr.size for _, arr in model.parameters())
