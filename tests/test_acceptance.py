"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL verdict line with the measured numbers (run with ``-s`` to see the
lines on success; a failure shows the same detail in the assertion).

Criteria covered:
  C1 invertibility across 50 random parameterizations per component
  C2 stored/recompute/finite-difference gradient agreement
  C3 peak-memory law in depth (recompute flat, stored affine)
  C4 peak-memory law in resolution (x4 per doubling, recompute below stored)
  C5 exact forward-evaluation accounting in both backward modes
  C6 published constants: activation ratio, scale ladder, stem shape
  C7 structural invariants: fresh identity, unitriangular scalar case,
     zero-level recovery
  C8 toy training parity between modes and loss halving
  C9 byte-identical CLI artifacts across same-seed reruns
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from textwrap import dedent

import numpy as np

from revfuse import cli
from revfuse.backbone import (BackboneConfig, StemStage, build, image_pyramid,
                              softmax_cross_entropy, step_gradients, train_toy)
from revfuse.context import BACKWARD, FORWARD
from revfuse.costmodel import activation_ratio, scale_row, scale_table
from revfuse.coupling import (FeaturePyramid, RevBlock, RevBlockSpec, Silo,
                              SiloSpec, expand_pyramid, pyramid_max_abs_diff,
                              pyramid_max_rel_diff, randomize_parameters)
from revfuse.dataset import make_synthetic_dataset
from revfuse.engine import (SiloStage, Tape, count_forward_evals, invert_chain)
from revfuse.tensor import Tensor

from helpers import affine_fit, rel_diff, richardson_fd

CH = {2: (8, 16), 3: (8, 16, 24), 4: (8, 16, 24, 32)}


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label} FAIL — {detail}"


def _toy_config(**kw) -> BackboneConfig:
    base = dict(channels=(16, 16, 16, 16), width_multiplier=1.0, extra_depth=1,
                resolution=32, num_classes=4, in_channels=1,
                precision="double", seed=0)
    base.update(kw)
    return BackboneConfig(**base)


def _pyramid(rng, channels, spatial=16, batch=2, dtype=np.float64):
    return FeaturePyramid([
        Tensor(rng.standard_normal(
            (batch, c, spatial >> k, spatial >> k)).astype(dtype))
        for k, c in enumerate(channels)
    ])


# ---------------------------------------------------------------------------
# C1 — invertibility
# ---------------------------------------------------------------------------

def _silo_chain_roundtrip(rng, levels: int, dtype, depth: int) -> float:
    channels = CH[levels]
    spec = SiloSpec(levels=levels, channels=channels)
    silos = []
    for i in range(depth):
        s = Silo.build(spec, name=f"s{i}", rng=rng, dtype=dtype)
        randomize_parameters(s.parameters(), rng)
        silos.append(s)
    # the coarsest level keeps >= 4x4 spatial per sample: batch statistics
    # computed over a handful of values are degenerate, not representative
    p = _pyramid(rng, channels, spatial=16 if levels < 4 else 32, dtype=dtype)
    cur = p
    for s in silos:
        cur, _ = s.forward(cur)
    for s in reversed(silos):
        cur, _ = s.inverse(cur)
    return pyramid_max_rel_diff(cur, p)


def _revblock_chain_roundtrip(rng, dtype, depth: int) -> float:
    spec = RevBlockSpec(channels_a=8, channels_b=8, kernel=3, expansion=2)
    blocks = []
    for i in range(depth):
        b = RevBlock.build(spec, name=f"rb{i}", rng=rng, dtype=dtype)
        randomize_parameters(b.parameters(), rng)
        blocks.append(b)
    x = Tensor(rng.standard_normal((2, 16, 8, 8)).astype(dtype))
    cur = x
    for b in blocks:
        cur, _ = b.forward(cur)
    for b in reversed(blocks):
        cur, _ = b.inverse(cur)
    return rel_diff(cur.data, x.data)


def _backbone_roundtrip(rng, precision: str, extra_depth: int) -> float:
    cfg = _toy_config(precision=precision, extra_depth=extra_depth,
                      resolution=64, seed=int(rng.integers(2 ** 31)))
    model = build(cfg)
    randomize_parameters(model.parameters(), rng)
    p = image_pyramid(rng.standard_normal((2, 1, 64, 64)), cfg.dtype)
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(p)
    tape.discard()
    back = invert_chain(model.blocks, out)
    return pyramid_max_rel_diff(back, p)


def test_c1_invertibility():
    t0 = time.monotonic()
    tol = {"double": 1e-11, "single": 1e-5}
    worst = {}
    for prec, dtype in (("double", np.float64), ("single", np.float32)):
        w = 0.0
        for t in range(50):
            depth = (1, 2, 4, 8)[t % 4]
            rng = np.random.default_rng([1001, t, 0 if prec == "double" else 1])
            w = max(w, _revblock_chain_roundtrip(rng, dtype, depth))
            for levels in (2, 3, 4):
                w = max(w, _silo_chain_roundtrip(rng, levels, dtype, depth))
            w = max(w, _backbone_roundtrip(rng, prec, t % 3))
        worst[prec] = w
    dt = time.monotonic() - t0
    ok = worst["double"] <= tol["double"] and worst["single"] <= tol["single"] \
        and dt < 120
    _verdict("C1 invertibility", ok,
             f"worst double {worst['double']:.3e} (tol 1e-11), "
             f"worst single {worst['single']:.3e} (tol 1e-5), {dt:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# C2 — gradient parity
# ---------------------------------------------------------------------------

def _model_loss(model, images, labels) -> float:
    tape = Tape(model.blocks, mode="recompute")
    out = tape.forward(image_pyramid(images, model.config.dtype), step_key=0)
    logits, _ = model.head.forward(out, None)
    loss, _ = softmax_cross_entropy(logits, labels)
    tape.discard()
    return loss


def test_c2_gradient_parity():
    t0 = time.monotonic()
    cfg = _toy_config(extra_depth=0, num_classes=3, seed=2)   # three-silo model
    model = build(cfg)
    randomize_parameters(model.parameters(), np.random.default_rng(202))
    ds = make_synthetic_dataset(3, 4, 32, 1, seed=202)
    images, labels = ds.images[:2], ds.labels[:2]

    loss_s, gs, _, _ = step_gradients(model, "stored", images, labels)
    loss_r, gr, _, _ = step_gradients(model, "recompute", images, labels)
    scale = max(float(np.max(np.abs(g))) for g in gs.values())
    worst_modes = 0.0
    for name in gs:
        err = float(np.max(np.abs(gs[name] - gr[name])))
        denom = max(float(np.max(np.abs(gs[name]))), 1e-3 * scale)
        worst_modes = max(worst_modes, err / denom)

    # every parameter tensor gets at least one finite-difference probe,
    # checked against BOTH modes' analytic gradients; the step is sized for
    # the curvature of stacked normalizations (their 1/sigma chains give the
    # loss fourth/fifth derivatives of order 1e14, so the extrapolated
    # truncation term h^4 f''''' only drops below 1e-4 rel near h ~ 2e-5)
    rng = np.random.default_rng(203)
    worst_fd = 0.0
    for name, arr in model.parameters():
        flat = arr.reshape(-1)
        idx = int(rng.integers(flat.size))
        fd = richardson_fd(lambda: _model_loss(model, images, labels),
                           flat, idx, 2.5e-5)
        for grads in (gs, gr):
            an = float(grads[name].reshape(-1)[idx])
            worst_fd = max(worst_fd, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
    dt = time.monotonic() - t0
    ok = loss_s == loss_r and worst_modes <= 1e-10 and worst_fd <= 1e-4 \
        and dt < 300
    _verdict("C2 gradient parity", ok,
             f"stored-vs-recompute {worst_modes:.3e} (tol 1e-10), "
             f"vs finite differences {worst_fd:.3e} (tol 1e-4), "
             f"{dt:.1f}s (<300s)")


# ---------------------------------------------------------------------------
# C3 — memory law in depth
# ---------------------------------------------------------------------------

def test_c3_memory_law_depth():
    t0 = time.monotonic()
    ds = make_synthetic_dataset(4, 2, 32, 1, seed=303)
    depths = list(range(1, 9))
    peaks = {"stored": [], "recompute": []}
    for d in depths:
        model = build(_toy_config(extra_depth=d, precision="single", seed=3))
        for mode in peaks:
            _, _, registry, _ = step_gradients(model, mode, ds.images, ds.labels)
            peaks[mode].append(registry.peak)
    rec = peaks["recompute"]
    ptp = (max(rec) - min(rec)) / min(rec)
    slope, _, r2 = affine_fit(depths, peaks["stored"])
    dt = time.monotonic() - t0
    ok = ptp < 0.10 and slope > 0 and r2 > 0.9 and dt < 120
    _verdict("C3 memory law (depth)", ok,
             f"recompute peak-to-peak {ptp:.2%} (<10%), stored slope "
             f"{slope:.0f} B/block (>0), R^2 {r2:.6f} (>0.9), {dt:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# C4 — memory law in resolution
# ---------------------------------------------------------------------------

def test_c4_memory_law_resolution():
    t0 = time.monotonic()
    resolutions = (32, 64, 128)
    peaks = {}
    for res in resolutions:
        ds = make_synthetic_dataset(4, 1, res, 1, seed=404)
        model = build(_toy_config(extra_depth=4, resolution=res,
                                  precision="single", seed=4))
        for mode in ("stored", "recompute"):
            _, _, registry, _ = step_gradients(model, mode, ds.images, ds.labels)
            peaks[(res, mode)] = registry.peak
    ratios = [peaks[(2 * r, m)] / peaks[(r, m)]
              for r in (32, 64) for m in ("stored", "recompute")]
    below = [peaks[(r, "recompute")] < peaks[(r, "stored")]
             for r in resolutions]
    dt = time.monotonic() - t0
    ok = all(3.4 <= q <= 4.6 for q in ratios) and all(below) and dt < 120
    _verdict("C4 memory law (resolution)", ok,
             f"doubling ratios {[f'{q:.2f}' for q in ratios]} (4 +/- 15%), "
             f"recompute below stored at every resolution: {all(below)}, "
             f"{dt:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# C5 — compute accounting
# ---------------------------------------------------------------------------

def test_c5_compute_accounting():
    rows = []
    for depth in (1, 2, 4, 8):
        rng = np.random.default_rng([505, depth])
        spec = SiloSpec(levels=3, channels=CH[3])
        blocks = []
        for i in range(depth):
            silo = Silo.build(spec, name=f"fuse{i}", rng=rng, dtype=np.float64)
            randomize_parameters(silo.parameters(), rng)
            blocks.append(SiloStage(silo))
        p = _pyramid(rng, CH[3], batch=2)
        for mode, want_bwd in (("stored", 0), ("recompute", 6 * depth)):
            tape = Tape(blocks, mode=mode)
            out = tape.forward(p, step_key=0)
            grad = [Tensor(np.asarray(rng.standard_normal(t.shape),
                                      dtype=t.dtype.type)) for t in out.levels]
            tape.backward(grad)
            evals = count_forward_evals(tape.counters)
            rows.append((depth, mode, evals[FORWARD], evals[BACKWARD],
                         6 * depth, want_bwd))
    ok = all(fwd == want_fwd and bwd == want_bwd
             for _, _, fwd, bwd, want_fwd, want_bwd in rows)
    worst = next(((d, m, f, b) for d, m, f, b, wf, wb in rows
                  if f != wf or b != wb), None)
    _verdict("C5 compute accounting", ok,
             "backward-phase F-evals == 0 stored and == forward count "
             f"recompute, exact for D in (1, 2, 4, 8); first mismatch {worst}")


# ---------------------------------------------------------------------------
# C6 — published constants
# ---------------------------------------------------------------------------

EXPECTED_LADDER = [
    ("S0", 1.0, 2, 224),
    ("S1", 1.3, 2, 256),
    ("S2", 2.0, 2, 256),
    ("S3", 2.7, 3, 288),
    ("S4", 4.0, 4, 320),
    ("S5", 5.3, 4, 352),
    ("S6", 6.7, 5, 352),
]


def test_c6_published_constants():
    ratio = activation_ratio(scale_row("S6").as_cfg(), scale_row("S1").as_cfg())
    ladder_ok = [(r.name, r.displayed_m_w, r.d, r.resolution)
                 for r in scale_table()] == EXPECTED_LADDER

    stem = StemStage(in_channels=3, duplication=1)
    out, _ = stem.forward(FeaturePyramid(
        [Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))]))
    stem_ok = out.shapes == ((1, 48, 56, 56),)          # 48 ch, /4 spatial

    s0 = BackboneConfig(channels=(48, 64, 80, 160), width_multiplier=1.0,
                        extra_depth=2, resolution=224, num_classes=1000,
                        in_channels=3, precision="single", seed=0)
    s0_ok = s0.effective_channels == (48, 64, 80, 160) \
        and scale_row("S0").channels() == (48, 64, 80, 160)

    ok = abs(ratio - 23.7) <= 0.1 and ladder_ok and stem_ok and s0_ok
    _verdict("C6 published constants", ok,
             f"activation_ratio(S6, S1) {ratio:.4f} (23.7 +/- 0.1), ladder "
             f"verbatim {ladder_ok}, stem 3ch->48ch /4 {stem_ok}, "
             f"S0 channels {s0_ok}")


# ---------------------------------------------------------------------------
# C7 — structural invariants
# ---------------------------------------------------------------------------

def test_c7_structural_invariants():
    rng = np.random.default_rng(707)

    # (a) fresh-init silo is a bit-exact identity at every supported width
    identity_ok = True
    for levels in (2, 3, 4):
        silo = Silo.build(SiloSpec(levels=levels, channels=CH[levels]),
                          name="fresh", rng=rng, dtype=np.float64)
        p = _pyramid(rng, CH[levels], batch=2)
        out, _ = silo.forward(p)
        identity_ok &= pyramid_max_abs_diff(out, p) == 0.0

    # (b) the scalar-case transfer matrix is unitriangular, det exactly 1
    tri_ok, det = True, 1.0
    for levels in (2, 3, 4):
        silo = Silo.build_scalar(levels, rng=rng)
        down = np.zeros((levels, levels))
        up = np.zeros((levels, levels))
        for k in range(levels):
            basis = [Tensor(np.full((1, 1, 1, 1), x))
                     for x in np.eye(levels)[k]]
            m, _ = silo.down_phase(basis)
            down[:, k] = [t.data.item() for t in m]
            o, _ = silo.up_phase(basis)
            up[:, k] = [t.data.item() for t in o]
        tri_ok &= np.array_equal(np.diag(down), np.ones(levels))
        tri_ok &= np.array_equal(np.triu(down, 1), np.zeros((levels, levels)))
        tri_ok &= np.array_equal(np.diag(up), np.ones(levels))
        tri_ok &= np.array_equal(np.tril(up, -1), np.zeros((levels, levels)))
        det = float(np.prod(np.diag(down)) * np.prod(np.diag(up)))
        tri_ok &= det == 1.0

    # (c) zero-input expansion: fresh params recover the appended zero level
    # bit-exactly; randomized single-precision params recover it to 1e-6
    # relative to the working activation scale
    spec = SiloSpec(levels=3, channels=(8, 16, 24))
    fresh = Silo.build(spec, name="exp", rng=rng, dtype=np.float64)
    p64 = _pyramid(rng, (8, 16), batch=2)
    out, _ = expand_pyramid(fresh, p64)
    back, _ = fresh.inverse(out)
    zero_exact = float(np.max(np.abs(back.levels[-1].data))) == 0.0

    noisy = Silo.build(spec, name="exp32", rng=rng, dtype=np.float32)
    randomize_parameters(noisy.parameters(), rng)
    p32 = _pyramid(rng, (8, 16), batch=2, dtype=np.float32)
    out, _ = expand_pyramid(noisy, p32)
    back, _ = noisy.inverse(out)
    scale = max(1.0, max(float(np.max(np.abs(t.data))) for t in out.levels))
    zero_err = float(np.max(np.abs(back.levels[-1].data))) / scale

    ok = identity_ok and tri_ok and zero_exact and zero_err <= 1e-6
    _verdict("C7 structural invariants", ok,
             f"fresh identity bit-exact {identity_ok}, scalar halves "
             f"unitriangular with det {det} (== 1), zero level exact(double) "
             f"{zero_exact} / {zero_err:.3e} rel (single, tol 1e-6)")


# ---------------------------------------------------------------------------
# C8 — toy training parity
# ---------------------------------------------------------------------------

def test_c8_toy_training_parity():
    t0 = time.monotonic()
    ds = make_synthetic_dataset(4, 64, 32, 1, noise=0.25, seed=808)
    worst = {}
    for prec, lr in (("double", 0.05), ("single", 0.02)):
        cfg = _toy_config(precision=prec, seed=8)
        rs = train_toy(cfg, ds, "stored", 50, 8, lr=lr, batch_size=8)
        rr = train_toy(cfg, ds, "recompute", 50, 8, lr=lr, batch_size=8)
        worst[prec] = max(
            abs(a - b) / max(abs(a), 1e-30)
            for a, b in zip(rs.losses, rr.losses))

    long_run = train_toy(_toy_config(seed=9), ds, "recompute", 200, 9,
                         lr=0.05, batch_size=8)
    halved = long_run.losses[-1] <= 0.5 * long_run.losses[0]
    dt = time.monotonic() - t0
    ok = worst["double"] <= 1e-9 and worst["single"] <= 1e-3 and halved \
        and dt < 600
    _verdict("C8 toy training parity", ok,
             f"50-step loss parity double {worst['double']:.3e} (tol 1e-9), "
             f"single {worst['single']:.3e} (tol 1e-3); 200-step loss "
             f"{long_run.losses[0]:.3f} -> {long_run.losses[-1]:.3f} "
             f"(halved: {halved}), {dt:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# C9 — CLI determinism
# ---------------------------------------------------------------------------

_MODEL_SEC = """
    [model]
    channels = 16, 16, 16, 16
    extra_depth = 1
    resolution = 32
    num_classes = 3
    in_channels = 1
    init_seed = 0
"""

_CONFIGS = {
    "verify-inverse": dedent("""
        [verify-inverse]
        seed = 3
        trials = 2
        components = revblock, silo, backbone

        [silo]
        levels = 3
        channels = 8, 16, 24
        depth = 2
        spatial = 8
        batch = 1

        [revblock]
        channels_a = 8
        channels_b = 8
        depth = 2
        spatial = 8
        batch = 1
    """) + dedent(_MODEL_SEC),
    "grad-check": dedent("""
        [grad-check]
        seed = 6
        batch = 1
        fd_probes_per_param = 1
    """) + dedent(_MODEL_SEC).replace("extra_depth = 1", "extra_depth = 0"),
    "mem-sweep": dedent("""
        [mem-sweep]
        seed = 2
        axis = depth
        values = 1, 2
        batch = 1
    """) + dedent(_MODEL_SEC),
    "train-toy": dedent("""
        [train-toy]
        seed = 4
        steps = 3
        batch_size = 4

        [dataset]
        samples = 12
    """) + dedent(_MODEL_SEC),
    "cost": dedent("""
        [cost]
        seed = 0
    """) + dedent(_MODEL_SEC),
}


def test_c9_cli_determinism(tmp_path):
    outcomes = {}
    for command, ini in _CONFIGS.items():
        cfgp = tmp_path / f"{command}.ini"
        cfgp.write_text(ini)
        raws = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}.csv"
            code = cli.main([command, "--config", str(cfgp), "--out", str(out)])
            assert code == 0, (command, run, code)
            raws.append(out.read_bytes())
        outcomes[command] = raws[0] == raws[1]
    ok = all(outcomes.values())
    _verdict("C9 CLI determinism", ok,
             "byte-identical CSV across same-seed reruns for "
             f"{sorted(outcomes)}: {ok}")
