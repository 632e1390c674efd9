"""Two-phase execution engine: gradient parity between stored and recompute
backward modes, the forward-evaluation counter contract, live-byte accounting,
and the depth laws of peak activation memory."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from revfuse.backbone import HeadStage
from revfuse.context import BACKWARD, FORWARD
from revfuse.coupling import (FeaturePyramid, Silo, SiloSpec,
                              pyramid_max_abs_diff, pyramid_max_rel_diff,
                              randomize_parameters)
from revfuse.engine import (BackwardMode, LiveBytesRegistry, Tape,
                            count_forward_evals, invert_chain)
from revfuse.errors import (AccountingError, ConfigurationError, StateError)
from revfuse.layers import MBConv
from revfuse.tensor import Tensor

from helpers import affine_fit, rel_diff

CHANNELS = (8, 16, 24)


def _pyramid(rng, channels=CHANNELS, spatial=16, batch=2, dtype=np.float64):
    return FeaturePyramid([
        Tensor(rng.standard_normal(
            (batch, c, spatial >> k, spatial >> k)).astype(dtype))
        for k, c in enumerate(channels)
    ])


def _norms(blocks):
    return [bn for silo in blocks for t in [*silo.down.values(), *silo.up.values()]
            for bn in (t.block.bn_expand, t.block.bn_dw, t.block.bn_project)
            if bn is not None]


def _silo_chain(rng, depth, channels=CHANNELS, dtype=np.float64):
    spec = SiloSpec(levels=len(channels), channels=channels)
    stages = []
    for i in range(depth):
        silo = Silo.build(spec, name=f"fuse{i}", rng=rng, dtype=dtype)
        randomize_parameters(silo.parameters(), rng)
        stages.append(silo)
    return stages


def _run(blocks, p, mode, rng, train=True):
    tape = Tape(blocks, mode=mode)
    out = tape.forward(p, step_key=0, train=train)
    grad_out = [Tensor(np.asarray(rng.standard_normal(t.shape), dtype=t.dtype.type))
                for t in out.levels]
    kept = out.with_levels([Tensor(t.data.copy()) for t in out.levels])
    # the tape empties its list, and a recompute backward overwrites ``out``
    result = tape.backward([Tensor(g.data.copy()) for g in grad_out])
    return kept, grad_out, result, tape


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_mode_parity_double():
    rng = np.random.default_rng(50)
    blocks = _silo_chain(rng, depth=3)
    p = _pyramid(rng)
    # in eval mode the recompute replay must normalize by the running
    # averages too, as the forward did
    for train in (True, False):
        if not train:
            for bn in _norms(blocks):
                bn.state.running_mean[:] = 0.3
                bn.state.running_var[:] = 2.0
        grng = np.random.default_rng(51)
        out_s, _, res_s, _ = _run(blocks, p, BackwardMode.STORED, grng, train)
        grng = np.random.default_rng(51)
        out_r, _, res_r, _ = _run(blocks, p, BackwardMode.RECOMPUTE, grng, train)

        assert pyramid_max_abs_diff(out_s, out_r) == 0.0
        assert res_s.param_grads.keys() == res_r.param_grads.keys()
        for name in res_s.param_grads:
            assert rel_diff(res_s.param_grads[name], res_r.param_grads[name]) < 1e-10
        for a, b in zip(res_s.input_grads, res_r.input_grads):
            assert rel_diff(a.data, b.data) < 1e-10


def test_mode_parity_with_expansion_stages():
    rng = np.random.default_rng(52)
    spec2 = SiloSpec(levels=2, channels=CHANNELS[:2])
    spec3 = SiloSpec(levels=3, channels=CHANNELS)
    s2 = Silo.build(spec2, name="expand1", rng=rng, dtype=np.float64, expands=True)
    s3 = Silo.build(spec3, name="expand2", rng=rng, dtype=np.float64, expands=True)
    randomize_parameters(s2.parameters(), rng)
    randomize_parameters(s3.parameters(), rng)
    blocks = [s2, s3] + _silo_chain(rng, 1)

    p = _pyramid(rng, CHANNELS[:1])
    grng = np.random.default_rng(53)
    _, _, res_s, _ = _run(blocks, p, "stored", grng)
    grng = np.random.default_rng(53)
    _, _, res_r, _ = _run(blocks, p, "recompute", grng)
    for name in res_s.param_grads:
        assert rel_diff(res_s.param_grads[name], res_r.param_grads[name]) < 1e-10
    assert len(res_s.input_grads) == 1      # expansion grads collapse back


def test_identity_chain_passes_gradient_through():
    rng = np.random.default_rng(54)
    spec = SiloSpec(levels=3, channels=CHANNELS)
    blocks = [Silo.build(spec, name=f"id{i}", rng=rng, dtype=np.float64)
              for i in range(3)]     # fresh init: exact identity
    p = _pyramid(rng)
    grng = np.random.default_rng(55)
    out, grad_out, result, _ = _run(blocks, p, "stored", grng)
    assert pyramid_max_abs_diff(out, p) == 0.0
    assert len(result.input_grads) == len(grad_out) == 3
    for g_in, g_out in zip(result.input_grads, grad_out):
        assert np.array_equal(g_in.data, g_out.data)


def test_a_checkpointing_block_after_the_chain_replays_from_the_kept_output():
    # a block that keeps a checkpoint in recompute mode follows a silo
    # chain: the tape keeps the chain output as the chain's replay start,
    # hands it over once that block's backward is done, and lets it go
    rng = np.random.default_rng(58)
    stage = MBConv("top", CHANNELS[-1], 8, kernel=3, stride=1,
                   rng=rng, dtype=np.float64)
    randomize_parameters(stage.parameters(), rng)
    blocks = _silo_chain(rng, depth=2) + [HeadStage(stage, level=2)]
    p = _pyramid(rng)
    results = {}
    for mode in ("stored", "recompute"):
        tape = Tape(blocks, mode=mode)
        out = tape.forward(p, step_key=0)
        assert list(tape.replay_starts) == ([1] if mode == "recompute" else [])
        kept = [weakref.ref(t.data) for q in tape.replay_starts.values()
                for t in q.levels]
        grad = [Tensor(np.random.default_rng(59).standard_normal(t.shape))
                for t in out.levels]
        del out
        gc.disable()
        try:
            results[mode] = tape.backward(grad)
        finally:
            gc.enable()
        assert tape.replay_starts == {}
        assert all(r() is None for r in kept)
    stored, recompute = results["stored"], results["recompute"]
    assert list(stored.param_grads) == list(recompute.param_grads)
    for name, g in stored.param_grads.items():
        if name.startswith("top."):     # read before anything is rebuilt
            assert g.tobytes() == recompute.param_grads[name].tobytes(), name
        else:
            assert rel_diff(g, recompute.param_grads[name]) < 1e-10, name
    for a, b in zip(stored.input_grads, recompute.input_grads):
        assert rel_diff(a.data, b.data) < 1e-10


# ---------------------------------------------------------------------------
# inverse chain
# ---------------------------------------------------------------------------

def test_invert_chain_round_trip():
    rng = np.random.default_rng(56)
    blocks = _silo_chain(rng, depth=4)
    p = _pyramid(rng)
    tape = Tape(blocks, mode="recompute")
    out = tape.forward(p)
    tape.discard()
    back = invert_chain(blocks, out)
    assert pyramid_max_rel_diff(back, p) < 1e-12


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_counter_contract(depth):
    rng = np.random.default_rng(57)
    blocks = _silo_chain(rng, depth)
    per_block = 6                      # 3 down + 3 up transforms at 3 levels
    p = _pyramid(rng)
    grng = np.random.default_rng(58)

    _, _, _, tape = _run(blocks, p, "stored", grng)
    evals = count_forward_evals(tape.counters)
    assert evals[FORWARD] == depth * per_block
    assert evals[BACKWARD] == 0

    _, _, _, tape = _run(blocks, p, "recompute", grng)
    evals = count_forward_evals(tape.counters)
    assert evals[FORWARD] == depth * per_block
    assert evals[BACKWARD] == evals[FORWARD]


# ---------------------------------------------------------------------------
# memory laws
# ---------------------------------------------------------------------------

def test_memory_depth_laws():
    depths = [1, 2, 3, 4, 6, 8]
    peaks = {"stored": [], "recompute": []}
    for depth in depths:
        rng = np.random.default_rng(59)
        blocks = _silo_chain(rng, depth, dtype=np.float32)
        for mode in peaks:
            p = _pyramid(np.random.default_rng(60), dtype=np.float32)
            grng = np.random.default_rng(61)
            _, _, _, tape = _run(blocks, p, mode, grng)
            peaks[mode].append(tape.registry.peak)

    slope, _, r2 = affine_fit(depths, peaks["stored"])
    assert slope > 0
    assert r2 > 0.999                       # stored mode: affine in depth
    assert int(np.ptp(peaks["recompute"])) == 0   # recompute mode: exactly flat


def test_recompute_peak_below_stored_at_depth():
    rng = np.random.default_rng(62)
    blocks = _silo_chain(rng, 4, dtype=np.float32)
    p = _pyramid(np.random.default_rng(63), dtype=np.float32)
    grng = np.random.default_rng(64)
    _, _, _, tape_s = _run(blocks, p, "stored", grng)
    blocks2 = blocks                      # same parameters, fresh tape
    _, _, _, tape_r = _run(blocks2, p, "recompute", grng)
    assert tape_r.registry.peak < tape_s.registry.peak


# ---------------------------------------------------------------------------
# registry accounting
# ---------------------------------------------------------------------------

def test_registry_counts_unique_arrays_once():
    reg = LiveBytesRegistry()
    arr = np.zeros((4, 4), dtype=np.float64)
    assert reg.add(arr, "a") is arr
    assert reg.current == arr.nbytes
    reg.add([arr, arr], "alias")            # same array via two references
    assert reg.current == arr.nbytes       # deduplicated
    view = arr[:2]                          # a view is an array of its own
    reg.add([arr, view], "view")
    assert reg.current == arr.nbytes + view.nbytes
    del view
    assert reg.current == arr.nbytes
    reg.release_all()
    assert reg.current == 0
    reg.assert_empty()


def test_registry_peak_tracks_high_water_mark():
    reg = LiveBytesRegistry()
    a = np.zeros(1000, dtype=np.float64)
    b = np.zeros(500, dtype=np.float64)
    reg.add(a, "a")
    reg.add(b, "b")
    del a
    assert reg.current == b.nbytes
    assert reg.peak == 1000 * 8 + b.nbytes
    reg.add(np.zeros(100), "c")             # dies at once: counted, then not
    assert reg.current == b.nbytes
    assert reg.peak == 1000 * 8 + b.nbytes


def test_registry_stops_counting_an_array_that_dies():
    # no call to the registry: dropping the last reference is the release
    reg = LiveBytesRegistry()
    kept, dropped = np.zeros(8), np.zeros((1, 2, 2, 2))
    reg.add({"kept": kept, "dropped": [Tensor(dropped)]}, "x")
    assert reg.current == kept.nbytes + dropped.nbytes
    del dropped
    assert reg.current == kept.nbytes
    with pytest.raises(AccountingError, match=r"\['x'\]"):
        reg.assert_empty()
    del kept
    assert reg.current == 0
    reg.assert_empty()


def test_registry_is_freed_by_refcount_alone():
    # the entries' shared callback holds the registry weakly: no cycle keeps
    # a dropped registry alive, and its arrays outlive it without error
    gc.disable()
    try:
        reg = LiveBytesRegistry()
        arr = np.zeros(8)
        reg.add(arr, "x")
        ref = weakref.ref(reg)
        del reg
        assert ref() is None
        del arr
    finally:
        gc.enable()


def test_registry_release_all_forgets_every_entry():
    # a released array that dies later is not taken off again, and one
    # added afterwards is counted afresh
    reg = LiveBytesRegistry()
    arr = np.zeros(8)
    reg.add(arr, "x")
    reg.release_all()
    assert reg.current == 0
    reg.assert_empty()
    reg.add(np.zeros(2), "y")               # dies at once
    reg.add(arr, "x")
    assert reg.current == arr.nbytes
    reg.release_all()
    del arr
    assert reg.current == 0
    reg.assert_empty()


def test_registry_assert_empty_raises_when_live():
    reg = LiveBytesRegistry()
    leak, other = np.zeros(8), np.zeros(4)
    reg.add(leak, "leak")
    reg.add(other, "other")
    with pytest.raises(AccountingError, match=r"\['leak', 'other'\]"):
        reg.assert_empty()
    del other
    with pytest.raises(AccountingError, match=r"\['leak'\]"):
        reg.assert_empty()


def test_modes_fold_running_averages_alike_without_a_step_key():
    # the recompute replay runs in the backward phase, so it does not fold
    # the batch statistics into the running averages again, keyed or not
    p = _pyramid(np.random.default_rng(57))
    running = []
    for mode in BackwardMode:
        blocks = _silo_chain(np.random.default_rng(56), depth=2)
        tape = Tape(blocks, mode=mode)
        out = tape.forward(p)
        tape.backward([Tensor(np.ones(t.shape)) for t in out.levels])
        running.append([a.tobytes() for bn in _norms(blocks)
                        for a in (bn.state.running_mean, bn.state.running_var)])
    assert running[0] == running[1]


def test_tape_leaves_registry_empty_after_backward():
    rng = np.random.default_rng(65)
    blocks = _silo_chain(rng, 2)
    for mode in ("stored", "recompute"):
        p = _pyramid(np.random.default_rng(66))
        _, _, _, tape = _run(blocks, p, mode, np.random.default_rng(67))
        assert tape.registry.current == 0
        tape.registry.assert_empty()


# ---------------------------------------------------------------------------
# state machine and error surfaces
# ---------------------------------------------------------------------------

def test_tape_state_errors():
    rng = np.random.default_rng(68)
    blocks = _silo_chain(rng, 1)
    tape = Tape(blocks)
    with pytest.raises(StateError):
        tape.backward([])                 # backward before forward
    p = _pyramid(np.random.default_rng(69))
    tape.forward(p)
    with pytest.raises(StateError):
        tape.forward(p)                   # forward while in flight
    tape.discard()
    tape.forward(p)                       # discard resets the cycle
    tape.discard()


def test_tape_rejects_empty_chain_and_bad_mode():
    with pytest.raises(ConfigurationError):
        Tape([])
    rng = np.random.default_rng(70)
    blocks = _silo_chain(rng, 1)
    with pytest.raises(ConfigurationError):
        Tape(blocks, mode="sideways")


def test_backward_mode_parse():
    assert BackwardMode.parse("stored") is BackwardMode.STORED
    assert BackwardMode.parse("RECOMPUTE") is BackwardMode.RECOMPUTE
    assert BackwardMode.parse(BackwardMode.STORED) is BackwardMode.STORED
    with pytest.raises(ConfigurationError):
        BackwardMode.parse("checkpoint")


def test_tape_names_offending_block_on_shape_error():
    rng = np.random.default_rng(71)
    spec_a = SiloSpec(levels=2, channels=(8, 16))
    spec_b = SiloSpec(levels=2, channels=(8, 24))    # mismatched second block
    blocks = [
        Silo.build(spec_a, name="ok", rng=rng, dtype=np.float64),
        Silo.build(spec_b, name="bad", rng=rng, dtype=np.float64),
    ]
    tape = Tape(blocks)
    p = _pyramid(np.random.default_rng(72), channels=(8, 16))
    with pytest.raises(ConfigurationError, match=r"block 1"):
        tape.forward(p)
    # an expanding silo takes one level fewer than its spec, not all of them
    grow = Silo.build(spec_a, name="grow", rng=rng, dtype=np.float64, expands=True)
    with pytest.raises(ConfigurationError, match=r"block 0 \(grow\): grow: expansion"):
        Tape([grow]).forward(p)


def test_backward_rejects_wrong_gradient_arity():
    rng = np.random.default_rng(73)
    blocks = _silo_chain(rng, 1)
    tape = Tape(blocks)
    out = tape.forward(_pyramid(np.random.default_rng(74)))
    with pytest.raises(ConfigurationError):
        tape.backward([Tensor(np.zeros(out.levels[0].shape))])
    tape.discard()


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_tape_recovers_after_a_block_raises(mode):
    # a NaN input makes a block raise mid-forward, and a NaN gradient makes
    # one raise mid-backward; either way the next clean step must run
    rng = np.random.default_rng(75)
    tape = Tape(_silo_chain(rng, 2), mode=mode)
    bad = _pyramid(np.random.default_rng(76))
    bad.levels[0].data[0, 0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        tape.forward(bad, step_key=0)
    assert tape.registry.current == 0

    p = _pyramid(np.random.default_rng(77))
    out = tape.forward(p, step_key=1)
    nan_grad = [Tensor(np.full(t.shape, np.nan)) for t in out.levels]
    with pytest.raises(FloatingPointError):
        tape.backward(nan_grad)
    assert tape.registry.current == 0

    out = tape.forward(p, step_key=2)
    grad = [Tensor(np.ones(t.shape)) for t in out.levels]
    result = tape.backward(grad)
    assert all(np.all(np.isfinite(g.data)) for g in result.input_grads)
    tape.registry.assert_empty()


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_nan_parameter_is_reported_at_its_block(mode):
    # kernels no longer check finiteness; the tape checks each block's
    # output, so a NaN in a middle silo is named there, not blocks later
    rng = np.random.default_rng(78)
    blocks = _silo_chain(rng, 3)
    _, weights = blocks[1].parameters()[0]
    weights.flat[0] = np.nan
    tape = Tape(blocks, mode=mode)
    with pytest.raises(FloatingPointError, match=r"block 1 \(fuse1\) forward"):
        tape.forward(_pyramid(np.random.default_rng(79)), step_key=0)
    assert tape.registry.current == 0


@pytest.mark.parametrize("mode", ["stored", "recompute"])
def test_nan_inside_a_block_backward_is_reported_at_its_block(mode):
    # a weight that turns NaN after the forward shows first in a middle
    # silo's VJP, read from its cache or replayed; the tape is then ready
    # for the next step
    rng = np.random.default_rng(80)
    blocks = _silo_chain(rng, 3)
    tape = Tape(blocks, mode=mode)
    p = _pyramid(np.random.default_rng(81))
    out = tape.forward(p, step_key=0)
    _, weights = blocks[1].parameters()[0]
    kept, weights.flat[0] = weights.flat[0], np.nan
    with pytest.raises(FloatingPointError, match=r"block 1 \(fuse1\) backward"):
        tape.backward([Tensor(np.ones(t.shape)) for t in out.levels])
    weights.flat[0] = kept
    assert tape.registry.current == 0

    out = tape.forward(p, step_key=1)
    result = tape.backward([Tensor(np.ones(t.shape)) for t in out.levels])
    assert all(np.all(np.isfinite(g.data)) for g in result.input_grads)
    tape.registry.assert_empty()
