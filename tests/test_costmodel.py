"""Analytic cost models: activation-memory scaling laws, training compute
table, the frozen scale ladder, and exact MAC/parameter counts."""

from __future__ import annotations

import numpy as np
import pytest

from revfuse.backbone import BackboneConfig, build
from revfuse.costmodel import (CHECKPOINTING, REVERSIBLE, SGD_BASELINE,
                               activation_memory_model,
                               activation_ratio, compute_cost_model,
                               mac_count, model_costs, param_count,
                               scale_row, scale_table)
from revfuse.errors import ConfigurationError


# ---------------------------------------------------------------------------
# activation-memory scaling laws
# ---------------------------------------------------------------------------

def _growth(method: str) -> float:
    """Memory growth factor when depth quadruples (4 -> 16)."""
    return activation_memory_model(method, 16) / activation_memory_model(method, 4)


def test_memory_law_layer_sequential():
    assert _growth(SGD_BASELINE) == 4.0     # linear
    assert _growth(CHECKPOINTING) == 2.0    # sqrt
    assert _growth(REVERSIBLE) == 1.0       # constant


def test_memory_model_unit_scaling():
    base = activation_memory_model(SGD_BASELINE, 7)
    assert activation_memory_model(SGD_BASELINE, 7, unit_bytes=3.5) == 3.5 * base


def test_compute_cost_table():
    assert compute_cost_model(SGD_BASELINE, 8) == (8, 16)
    assert compute_cost_model(CHECKPOINTING, 8) == (16, 16)
    assert compute_cost_model(REVERSIBLE, 1) == (2, 2)
    # reversible trades a second forward pass for constant memory
    fwd_base, _ = compute_cost_model(SGD_BASELINE, 8)
    fwd_rev, _ = compute_cost_model(REVERSIBLE, 8)
    assert fwd_rev == 2 * fwd_base


def test_cost_model_validation():
    with pytest.raises(ConfigurationError):
        activation_memory_model("nonsense", 4)
    with pytest.raises(ConfigurationError):
        activation_memory_model(SGD_BASELINE, 0)
    with pytest.raises(ConfigurationError):
        compute_cost_model(SGD_BASELINE, 0)
    with pytest.raises(ConfigurationError):
        compute_cost_model("nonsense", 4)


# ---------------------------------------------------------------------------
# scale ladder
# ---------------------------------------------------------------------------

EXPECTED_LADDER = [
    # name, displayed width multiplier, fusion depth, resolution
    ("S0", 1.0, 2, 224),
    ("S1", 1.3, 2, 256),
    ("S2", 2.0, 2, 256),
    ("S3", 2.7, 3, 288),
    ("S4", 4.0, 4, 320),
    ("S5", 5.3, 4, 352),
    ("S6", 6.7, 5, 352),
]


def test_scale_table_frozen_values():
    table = scale_table()
    assert [r.name for r in table] == [e[0] for e in EXPECTED_LADDER]
    for row, (name, m_w, d, res) in zip(table, EXPECTED_LADDER):
        assert row.displayed_m_w == m_w, name
        assert row.d == d, name
        assert row.resolution == res, name
        # the backbone enforces the ladder's /32 resolution and /16 width rules
        BackboneConfig(channels=row.channels(), extra_depth=row.d,
                       resolution=row.resolution, in_channels=1)


def test_scale_row_channels():
    assert scale_row("S0").channels() == (48, 64, 80, 160)
    assert scale_row("S1").channels() == (64, 80, 112, 208)
    assert scale_row("S2").channels() == (96, 128, 160, 320)


def test_scale_row_unknown_name():
    with pytest.raises(ConfigurationError):
        scale_row("S9")


def test_activation_ratio_published_endpoint():
    ratio = activation_ratio(scale_row("S6").as_cfg(), scale_row("S1").as_cfg())
    assert abs(ratio - 23.7) < 0.1
    # exact arithmetic of the stored (two-decimal) multipliers
    assert abs(ratio - (6.67 / 1.33) * (352 / 256) ** 2 * (5 / 2)) < 1e-12


def test_activation_ratio_identity_and_resolution():
    s1 = scale_row("S1").as_cfg()
    assert activation_ratio(s1, s1) == 1.0
    m_w, res, d = s1
    assert abs(activation_ratio((m_w, 2 * res, d), s1) - 4.0) < 1e-12
    with pytest.raises(ConfigurationError):
        activation_ratio((0.0, res, d), s1)


# ---------------------------------------------------------------------------
# exact MAC / parameter counts
# ---------------------------------------------------------------------------

def _toy(channels=(16, 16, 16, 16), resolution=32, in_channels=1):
    return BackboneConfig(channels=channels, width_multiplier=1.0,
                          extra_depth=1, resolution=resolution,
                          num_classes=4, in_channels=in_channels,
                          precision="double", seed=0)


def test_s0_224_cost_table():
    # the model of configs/cost.ini: S0 widths at 224 px, batch 1
    model = build(BackboneConfig(channels=(48, 64, 80, 160), extra_depth=2,
                                 resolution=224, num_classes=1000, in_channels=3))
    fusion = (136_461_888, 669_004)
    assert [(it.component, it.macs, it.params) for it in model_costs(model)] == [
        ("stem", 0, 0),
        ("expand1", 24_015_872, 24_392),
        ("expand2", 69_528_960, 134_964),
        ("expand3", *fusion), ("fuse0", *fusion), ("fuse1", *fusion),
        ("head", 45_753_184, 1_825_720),
    ]
    assert (mac_count(model), param_count(model)) == (548_683_680, 3_992_088)


def test_param_count_matches_live_tensors():
    model = build(_toy())
    expected = sum(int(np.prod(a.shape)) for _, a in model.parameters())
    assert param_count(model) == expected


def test_model_costs_components_sum_to_totals():
    model = build(_toy())
    items = model_costs(model, batch=1)
    assert [it.component for it in items] == \
        ["stem", "expand1", "expand2", "expand3", "fuse0", "head"]
    assert items[0].macs == 0 and items[0].params == 0   # stem is free
    assert sum(it.macs for it in items) == mac_count(model, batch=1)
    assert sum(it.params for it in items) == param_count(model)


def test_macs_scale_linearly_with_batch():
    model = build(_toy())
    assert mac_count(model, batch=4) == 4 * mac_count(model, batch=1)


def test_channel_doubling_roughly_quadruples_fusion_cost():
    small = model_costs(build(_toy()), batch=1)
    big = model_costs(build(_toy(channels=(32, 32, 32, 32), in_channels=2)),
                      batch=1)
    f_small = next(it for it in small if it.component == "fuse0")
    f_big = next(it for it in big if it.component == "fuse0")
    # depthwise convs are linear in channels, pointwise quadratic; the blend
    # lands strictly between 2x and 4x.  MACs are dominated by the pointwise
    # stages; params carry a larger depthwise share at narrow widths.
    assert 3.0 < f_big.macs / f_small.macs <= 4.0
    assert 2.0 < f_big.params / f_small.params < 4.0


def test_resolution_scaling_leaves_params_fixed():
    m32, m64 = build(_toy()), build(_toy(resolution=64))
    assert param_count(m32) == param_count(m64)
    # convs are resolution-agnostic in params but scale with pixel count
    assert mac_count(m64, batch=1) > 3 * mac_count(m32, batch=1)
