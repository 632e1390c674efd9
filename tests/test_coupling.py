"""Properties of the fusion coupling module and the two-stream residual block:
exact identity at fresh init, inverse round-trips, unitriangular structure in
the scalar case, evaluation-order independence, strict inverse ordering, and
the recompute reverse step's agreement with the inverse and with backward."""

from __future__ import annotations

import configparser
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfuse import kernels as K
from revfuse.context import BACKWARD, F_EVAL, FORWARD, ExecContext, OpCounters
from revfuse.coupling import (FeaturePyramid, RevBlock, RevBlockSpec, Silo,
                              SiloSpec, expand_pyramid, expanded_input,
                              pyramid_max_abs_diff, pyramid_max_rel_diff,
                              randomize_parameters)
from revfuse.engine import LiveBytesRegistry, _iter_arrays, invert_chain
from revfuse.errors import ConfigurationError
from revfuse.tensor import Tensor

from helpers import central_fd, heap_peak, rel_diff, watch_norm_caches


def _pyramid(rng, channels, spatial=16, batch=2, dtype=np.float64):
    return FeaturePyramid([
        Tensor(rng.standard_normal(
            (batch, c, spatial >> k, spatial >> k)).astype(dtype))
        for k, c in enumerate(channels)
    ])


def _copies(levels):
    """New arrays holding ``levels``' values: what a call that consumes its
    pyramid or gradient list is handed when the test reads them again."""
    return [Tensor(t.data.copy()) for t in levels]


def _random_silo(rng, channels, dtype=np.float64, name="silo", expands=False):
    spec = SiloSpec(levels=len(channels), channels=tuple(channels))
    silo = Silo.build(spec, name=name, rng=rng, dtype=dtype, expands=expands)
    randomize_parameters(silo.parameters(), rng)
    return silo


# ---------------------------------------------------------------------------
# identity and round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("channels", [(8, 8), (8, 16, 24), (8, 16, 24, 32)])
def test_fresh_silo_is_bit_exact_identity(channels):
    rng = np.random.default_rng(30)
    spec = SiloSpec(levels=len(channels), channels=channels)
    silo = Silo.build(spec, name="fresh", rng=rng, dtype=np.float64)
    p = _pyramid(rng, channels)
    out, _ = silo.forward(p)
    assert pyramid_max_abs_diff(out, p) == 0.0


def test_pyramid_diffs_propagate_a_nan_in_any_level():
    rng = np.random.default_rng(34)
    p = _pyramid(rng, (4, 8), spatial=8)
    q = FeaturePyramid(_copies(p.levels))
    q.levels[0].data[0, 0, 0, 0] += 1.0
    q.levels[1].data[0, 0, 0, 0] = np.nan
    assert np.isnan(pyramid_max_abs_diff(q, p))
    assert np.isnan(pyramid_max_rel_diff(q, p))


@pytest.mark.parametrize("channels", [(8, 8), (8, 16, 24), (8, 16, 24, 32)])
def test_silo_round_trip_double(channels):
    rng = np.random.default_rng(31)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels)
    out, _ = silo.forward(p)
    assert pyramid_max_abs_diff(out, p) > 0.0       # not an accidental identity
    back, _ = silo.inverse(out)
    assert pyramid_max_rel_diff(back, p) < 1e-13


def test_silo_round_trip_single_depth8():
    rng = np.random.default_rng(32)
    channels = (8, 16, 24)
    silos = [_random_silo(rng, channels, np.float32, name=f"s{i}")
             for i in range(8)]
    p = _pyramid(rng, channels, dtype=np.float32)
    cur = p
    for s in silos:
        cur, _ = s.forward(cur)
    for s in reversed(silos):
        cur, _ = s.inverse(cur)
    assert pyramid_max_rel_diff(cur, p) < 1e-5


def test_revblock_round_trip():
    rng = np.random.default_rng(33)
    spec = RevBlockSpec(channels_a=8, channels_b=8, kernel=3, expansion=2)
    block = RevBlock.build(spec, name="rb", rng=rng, dtype=np.float64)
    randomize_parameters(block.parameters(), rng)
    x = Tensor(rng.standard_normal((2, 16, 8, 8)))
    y, _ = block.forward(x)
    assert rel_diff(y.data, x.data) > 1e-3
    back, _ = block.inverse(y)
    assert rel_diff(back.data, x.data) < 1e-13


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("channels_a,channels_b", [(8, 8), (4, 8)])
def test_revblock_is_the_two_stream_coupling(channels_a, channels_b, dtype):
    # forward, inverse and VJP are byte-identical to y_a = x_a + F(x_b),
    # y_b = x_b + G(y_a) and their VJP taken straight from the block's F
    # and G, so F and G cannot swap roles or streams unnoticed
    rng = np.random.default_rng(50)
    spec = RevBlockSpec(channels_a=channels_a, channels_b=channels_b, kernel=3,
                        expansion=2, se_ratio=0.25)
    block = RevBlock.build(spec, name="rb", rng=rng, dtype=dtype)
    randomize_parameters(block.parameters(), rng)
    shape = (2, channels_a + channels_b, 8, 8)
    x = Tensor(rng.standard_normal(shape).astype(dtype))
    gy = Tensor(rng.standard_normal(shape).astype(dtype))

    def split(t):
        return (Tensor(np.ascontiguousarray(t.data[:, :channels_a])),
                Tensor(np.ascontiguousarray(t.data[:, channels_a:])))

    def joined(a, b):
        return np.concatenate([a.data, b.data], axis=1).tobytes()

    xa, xb = split(x)
    f_out, f_cache = block.f.forward(xb)
    ya = K.add(xa, f_out)
    g_out, g_cache = block.g.forward(ya)
    yb = K.add(xb, g_out)
    y, cache = block.forward(x, want_cache=True)
    assert y.data.tobytes() == joined(ya, yb)

    # K.sub writes into its first argument; y_a and y_b are read again
    rb = K.sub(Tensor(yb.data.copy()), block.g.forward(ya)[0])
    ra = K.sub(Tensor(ya.data.copy()), block.f.forward(rb)[0])
    back, extra = block.inverse(y)
    assert extra is None
    assert back.data.tobytes() == joined(ra, rb)

    gya, gyb = split(gy)
    g_in, g_grads = block.g.backward(g_cache, gyb)
    gxa = K.add(gya, g_in)                   # all the gradient reaching y_a
    f_in, f_grads = block.f.backward(f_cache, gxa)
    gxb = K.add(gyb, f_in)
    gx, grads = block.backward(cache, gy)
    assert gx.data.tobytes() == joined(gxa, gxb)
    want = {**g_grads, **f_grads}
    assert list(grads) == list(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


@settings(max_examples=15, deadline=None)
@given(
    levels=st.integers(2, 4),
    spatial=st.sampled_from([8, 16]),
    seed=st.integers(0, 10_000),
)
def test_silo_round_trip_property(levels, spatial, seed):
    rng = np.random.default_rng(seed)
    channels = tuple(8 * (k + 1) for k in range(levels))
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels, spatial=spatial)
    out, _ = silo.forward(p)
    back, _ = silo.inverse(out)
    assert pyramid_max_rel_diff(back, p) < 1e-12


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expansion_appends_zero_level_and_round_trips():
    rng = np.random.default_rng(34)
    channels = (8, 16, 24)
    spec = SiloSpec(levels=3, channels=channels)
    silo = Silo.build(spec, name="exp", rng=rng, dtype=np.float64)
    randomize_parameters(silo.parameters(), rng)

    p = _pyramid(rng, channels[:2], spatial=16)
    x = expanded_input(silo, p)
    assert x.num_levels == 3
    assert x.channels == channels
    assert np.all(x.levels[-1].data == 0.0)
    assert x.shapes[-1] == (2, 24, 4, 4)         # half the previous level

    out, _ = expand_pyramid(silo, p)
    back, _ = silo.inverse(out)
    # dropped-level reconstruction: the appended level comes back as zero
    assert float(np.max(np.abs(back.levels[-1].data))) < 1e-12
    assert pyramid_max_rel_diff(
        FeaturePyramid(back.levels[:2]), p) < 1e-12


def test_expansion_zero_level_recovery_single_precision():
    rng = np.random.default_rng(35)
    channels = (8, 16)
    spec = SiloSpec(levels=2, channels=channels)
    silo = Silo.build(spec, name="exp32", rng=rng, dtype=np.float32)
    randomize_parameters(silo.parameters(), rng)
    p = _pyramid(rng, channels[:1], spatial=16, dtype=np.float32)
    out, _ = expand_pyramid(silo, p)
    back, _ = silo.inverse(out)
    scale = max(float(np.max(np.abs(t.data))) for t in out.levels)
    assert float(np.max(np.abs(back.levels[-1].data))) / scale < 1e-6


def test_expanded_input_requires_halvable_spatial():
    rng = np.random.default_rng(36)
    spec = SiloSpec(levels=2, channels=(8, 16))
    silo = Silo.build(spec, name="exp", rng=rng, dtype=np.float64)
    odd = FeaturePyramid([Tensor(rng.standard_normal((1, 8, 5, 5)))])
    with pytest.raises(ConfigurationError):
        expanded_input(silo, odd)


# ---------------------------------------------------------------------------
# scalar oracle: triangular structure
# ---------------------------------------------------------------------------

def _scalar_pyramid_from_vector(v, dtype=np.float64):
    return [Tensor(np.full((1, 1, 1, 1), x, dtype=dtype)) for x in v]


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_scalar_silo_halves_are_unitriangular(levels):
    rng = np.random.default_rng(37)
    silo = Silo.build_scalar(levels, rng=rng)

    down_mat = np.zeros((levels, levels))
    up_mat = np.zeros((levels, levels))
    for k in range(levels):
        basis = _scalar_pyramid_from_vector(np.eye(levels)[k])
        m, _ = silo.down_phase(basis)
        down_mat[:, k] = [t.data.item() for t in m]
        o, _ = silo.up_phase(basis)
        up_mat[:, k] = [t.data.item() for t in o]

    # down half: unit lower triangular (exactly)
    assert np.array_equal(np.diag(down_mat), np.ones(levels))
    assert np.array_equal(np.triu(down_mat, 1), np.zeros((levels, levels)))
    # up half: unit upper triangular (exactly)
    assert np.array_equal(np.diag(up_mat), np.ones(levels))
    assert np.array_equal(np.tril(up_mat, -1), np.zeros((levels, levels)))

    # determinant of the composition is exactly 1: the product of the
    # (exactly unit) diagonals of the two triangular factors
    det = float(np.prod(np.diag(down_mat)) * np.prod(np.diag(up_mat)))
    assert det == 1.0

    # and the composition reproduces the silo forward on a random vector
    v = rng.standard_normal(levels)
    out, _ = silo.forward(
        FeaturePyramid(_scalar_pyramid_from_vector(v), require_halving=False))
    want = up_mat @ (down_mat @ v)
    got = np.array([t.data.item() for t in out])
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_scalar_silo_inverse_is_exact_linear_solve():
    rng = np.random.default_rng(38)
    silo = Silo.build_scalar(3, rng=rng)
    v = rng.standard_normal(3)
    p = FeaturePyramid(_scalar_pyramid_from_vector(v), require_halving=False)
    out, _ = silo.forward(p)
    back, _ = silo.inverse(out)
    got = np.array([t.data.item() for t in back])
    assert np.allclose(got, v, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# evaluation order and inverse ordering
# ---------------------------------------------------------------------------

def test_forward_is_bit_identical_under_any_evaluation_order():
    rng = np.random.default_rng(39)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels)
    base, base_cache = silo.forward(p, want_cache=True)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in base.levels]
    _, g_base, grads_base = silo.backward(base_cache, None, _copies(grad_out))

    spec = silo.spec
    orders = np.random.default_rng(7)
    for _ in range(5):
        down = list(spec.down_pairs())
        up = list(spec.up_pairs())
        orders.shuffle(down)
        orders.shuffle(up)
        out, cache = silo.forward(p, want_cache=True, down_order=down, up_order=up)
        assert pyramid_max_abs_diff(out, base) == 0.0
        # backward walks the caches in canonical order, whatever order
        # the forward filled them in
        _, g, grads = silo.backward(cache, None, _copies(grad_out))
        for a, b in zip(g, g_base):
            assert a.data.tobytes() == b.data.tobytes()
        assert list(grads) == list(grads_base)
        for name in grads_base:
            assert grads[name].tobytes() == grads_base[name].tobytes(), name


def test_forward_rejects_bad_evaluation_order():
    rng = np.random.default_rng(40)
    channels = (8, 16)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels)
    with pytest.raises(ConfigurationError):
        silo.forward(p, down_order=[(0, 1), (0, 1)])
    with pytest.raises(ConfigurationError):
        silo.forward(p, up_order=[])


def _intermediates(silo, p_out):
    """The intermediates: the up half undone on copies of the output levels."""
    m = _copies(p_out.levels)
    for _ in silo._undo(silo.up, m, None):
        pass
    return m


def test_inverse_strict_ordering_sensitivity():
    # corrupting output level k leaves intermediates above k bit-identical
    # and shifts intermediate k by exactly the corruption
    rng = np.random.default_rng(41)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels)
    out, _ = silo.forward(p)
    m_ref = _intermediates(silo, out)

    eps = 1e-3
    k = 1
    corrupted = [t.data.copy() for t in out.levels]
    corrupted[k] = corrupted[k] + eps
    out_bad = out.with_levels([Tensor(a) for a in corrupted])
    m_bad = _intermediates(silo, out_bad)

    for i in range(k + 1, 4):
        assert np.array_equal(m_bad[i].data, m_ref[i].data)
    delta = m_bad[k].data - m_ref[k].data
    assert float(np.max(np.abs(delta - eps))) < 1e-12
    assert float(np.max(np.abs(m_bad[0].data - m_ref[0].data))) > 0.0


def test_inverse_holds_one_pyramid_copy_beyond_one_transform():
    # the reconstruction runs on one copy of the output levels, and each
    # replayed transform's output is subtracted and dropped before the next
    # runs, so the peak is that copy plus the largest single replay's
    rng = np.random.default_rng(42)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels)
    out, _ = silo.forward(_pyramid(rng, channels, spatial=32))
    ctx = ExecContext(phase=BACKWARD)
    silo.inverse(out)       # first calls of the kernels, off the record
    replay = max(heap_peak(lambda: t.forward(out.levels[i], ctx))[1]
                 for (i, _), t in silo._transforms())
    (_, m), peak = heap_peak(lambda: silo.inverse(out))
    assert peak <= out.nbytes + replay + 8192, (peak, out.nbytes, replay)
    assert m is None


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _replayed_inverse_cache(silo, out, ctx=None):
    """Reference: the inverse's evaluations, all kept, in a forward-layout
    cache.  Each transform runs once on reconstructed values, in the
    inverse's order; the reverse step must reproduce ``backward`` from this
    cache bit for bit, given a ``BACKWARD``-phase ``ctx`` where it replays
    in chunks (no ctx runs each transform whole).  Returns (cache,
    reconstructed levels)."""
    n = silo.spec.levels
    m, up = _copies(out.levels), {}
    for j in range(n - 2, -1, -1):
        for i in range(j + 1, n):
            y, up[(i, j)] = silo.up[(i, j)].forward(m[i], ctx, True)
            m[j] = K.sub(m[j], y)
    x, down = _copies(m), {}
    for j in range(1, n):
        for i in range(j):
            y, down[(i, j)] = silo.down[(i, j)].forward(x[i], ctx, True)
            x[j] = K.sub(x[j], y)
    return {"down": down, "up": up}, m[:-1] + x[1:]


class _RecordingRegistry(LiveBytesRegistry):
    """A registry that also keeps every label it was handed."""

    def __init__(self):
        super().__init__()
        self.labels = []

    def add(self, obj, label):
        self.labels.append(label)
        return super().add(obj, label)


def _live_labels(registry):
    """The labels of the arrays ``registry`` still counts."""
    return {entry.label for entry in registry._live.values()}


def _unique_bytes(obj):
    reg = LiveBytesRegistry()
    reg.add(obj, "probe")
    return reg.current


def _working_set(cache):
    """A transform's cache plus the most its MBConv backward may hold
    rebuilt at once: at the destination resolution, the depthwise stage's
    hard-swish output and squeeze-excite product (each the size of that
    stage's normalized input); at the source resolution, one expansion
    chunk's hard-swish output and, where the cache keeps that chunk's mean
    in place of its xhat, the recomputed xhat."""
    (x, norms, _), _ = cache
    *stages, _ = norms                         # [expand,] depthwise; project
    src = 0
    if len(stages) == 2:
        n, _, h, w = x.shape
        for xhat_or_mean, inv_std, _ in stages[0]:
            chunk = n * inv_std.size * h * w * x.dtype.itemsize
            src = max(src, chunk * (2 if xhat_or_mean.ndim == 1 else 1))
    return _unique_bytes(cache) + max(2 * stages[-1][0].nbytes, src)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", ["silo3", "silo4", "expand3"])
def test_reverse_step_matches_inverse_and_backward(case, dtype):
    rng = np.random.default_rng({"silo3": 42, "silo4": 142, "expand3": 242}[case])
    channels = (8, 16, 24, 32)[:int(case[-1])]
    expands = case.startswith("expand")
    silo = _random_silo(rng, channels, dtype, expands=expands)
    p = _pyramid(rng, channels[:-1] if expands else channels, spatial=32, dtype=dtype)
    out, fwd_cache = silo.forward(p, None, True)
    grad_out = [Tensor(rng.standard_normal(t.shape).astype(dtype)) for t in out.levels]

    registry = _RecordingRegistry()
    step_out = registry.add(out.with_levels(_copies(out.levels)), "out")  # overwritten
    counters = OpCounters()
    p_in, g_in, grads = silo.backward(None, step_out, _copies(grad_out),
                                      ExecContext(counters, BACKWARD), registry)
    peak = registry.peak
    assert _live_labels(registry) == {"out"}   # the step let go of all it counted
    assert counters.get(BACKWARD, F_EVAL) == len(silo.down) + len(silo.up)

    # reconstruction: byte-identical to the inverse
    assert len(p_in.levels) == len(p.levels)
    for a, b in zip(p_in.levels, silo.inverse(out)[0].levels):
        assert a.data.tobytes() == b.data.tobytes()

    # gradients: byte-identical to backward from the replayed cache, with
    # the same key order, and equal to backward from the forward cache
    ref_cache, rebuilt = _replayed_inverse_cache(silo, out)
    # the transforms' working sets, read before backward lets go of the cache
    caches = list(ref_cache["up"].values()) + list(ref_cache["down"].values())
    largest = max(_working_set(c) for c in caches)
    all_caches = _unique_bytes(caches)
    _, g_ref, grads_ref = silo.backward(ref_cache, None, _copies(grad_out))
    assert len(g_in) == len(g_ref) == len(p.levels)
    for a, b in zip(g_in, g_ref):
        assert a.data.tobytes() == b.data.tobytes()
    assert list(grads) == list(grads_ref)
    for name in grads_ref:
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name
    if dtype == np.float64:
        _, g_fwd, grads_fwd = silo.backward(fwd_cache, None, grad_out)
        for a, b in zip(g_in, g_fwd):
            assert rel_diff(a.data, b.data) < 1e-12
        for name in grads_fwd:
            assert rel_diff(grads[name], grads_fwd[name]) < 1e-12, name

    # registry: every reconstructed level is a level of the registered
    # output, and the peak is the output, the reconstructed levels and one
    # transform's working set (its cache and what its VJP rebuilds) at
    # most; keeping every cache alive would exceed it
    assert all(any(lv is t for t in step_out.levels) for lv in p_in.levels)
    bound = out.nbytes + sum(t.nbytes for t in rebuilt) + largest
    assert peak <= bound
    assert all_caches > bound - out.nbytes


def test_multi_chunk_reverse_step_stays_within_its_working_set():
    # at 64 px the level-0 and level-1 down transforms replay their
    # expansion stages in 2 to 4 chunks; keeping the expanded tensor whole
    # would need more than the chunked working set
    rng = np.random.default_rng(244)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels, spatial=64)
    assert [len(silo.down[(i, j)].block.chunks(p[i].shape, True))
            for i, j in silo.spec.down_pairs()] == [2, 3, 2, 4, 2, 1]
    out, fwd_cache = silo.forward(p, None, True)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in out.levels]

    registry = LiveBytesRegistry()
    step_out = registry.add(out.with_levels(_copies(out.levels)), "out")  # overwritten
    p_in, g_in, grads = silo.backward(None, step_out, _copies(grad_out),
                                      ExecContext(OpCounters(), BACKWARD), registry)
    peak = registry.peak
    assert _live_labels(registry) == {"out"}

    for a, b in zip(p_in.levels, silo.inverse(out)[0].levels):
        assert a.data.tobytes() == b.data.tobytes()
    chunked, rebuilt = _replayed_inverse_cache(silo, out, ExecContext(None, BACKWARD))
    largest = lambda cache: max(_working_set(c) for half in cache.values()
                                for c in half.values())
    chunked_set = largest(chunked)           # before backward lets go of it
    _, g_ref, grads_ref = silo.backward(chunked, None, _copies(grad_out))
    for a, b in zip(g_in, g_ref):
        assert a.data.tobytes() == b.data.tobytes()
    assert list(grads) == list(grads_ref)
    for name in grads_ref:
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name
    _, g_fwd, grads_fwd = silo.backward(fwd_cache, None, grad_out)
    for a, b in zip(g_in, g_fwd):
        assert rel_diff(a.data, b.data) < 1e-12
    for name in grads_fwd:
        assert rel_diff(grads[name], grads_fwd[name]) < 1e-12, name

    whole, _ = _replayed_inverse_cache(silo, out)
    base = out.nbytes + sum(t.nbytes for t in rebuilt)
    assert peak <= base + chunked_set < base + largest(whole)


@pytest.mark.parametrize("expands", [False, True])
def test_reverse_step_keeps_no_earlier_cache_alive(expands):
    # no reference, registered or not, keeps a transform's cache alive once
    # the next transform runs: weak references to each cache's arrays (less
    # the transform's input, a level the step keeps) must all be dead then
    rng = np.random.default_rng(243)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels, expands=expands)
    p = _pyramid(rng, channels[:-1] if expands else channels, spatial=32)
    out, _ = silo.forward(p)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in out.levels]
    earlier, alive = [], []
    for transform in [*silo.down.values(), *silo.up.values()]:
        def forward(x, ctx=None, want_cache=True, _inner=transform.forward):
            alive.append(sum(r() is not None for r in earlier))
            y, cache = _inner(x, ctx, want_cache)
            earlier.extend(weakref.ref(a) for a in _iter_arrays(cache)
                           if a is not x.data)
            return y, cache
        transform.forward = forward
    registry = LiveBytesRegistry()
    silo.backward(None, registry.add(out, "out"), grad_out, None, registry)
    assert earlier and alive == [0] * (len(silo.down) + len(silo.up))


@pytest.mark.parametrize("expands", [False, True])
def test_reverse_step_rebuilds_in_the_arrays_it_was_handed(expands):
    # the step allocates no pyramid: the input comes back in the output's
    # arrays and its gradient in the output gradient's, as from backward,
    # and nothing is registered as a reconstruction, so the registry peak
    # is the output and one transform's working set at most
    rng = np.random.default_rng(245)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels, expands=expands)
    p = _pyramid(rng, channels[:-1] if expands else channels, spatial=32)
    out, fwd_cache = silo.forward(p, None, True)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in out.levels]
    handed = _copies(grad_out)
    _, g_in, _ = silo.backward(fwd_cache, None, handed)
    assert len(g_in) == len(p.levels)
    assert all(np.shares_memory(a.data, b.data) for a, b in zip(g_in, handed))

    ref_cache, _ = _replayed_inverse_cache(silo, out)
    largest = max(_working_set(c) for half in ref_cache.values() for c in half.values())
    registry = _RecordingRegistry()
    p_in, g_in, _ = silo.backward(None, registry.add(out, "out"), list(grad_out), None,
                                  registry)
    assert _live_labels(registry) == {"out"}
    assert len(p_in.levels) == len(g_in) == len(p.levels)
    assert all(np.shares_memory(a.data, b.data) for a, b in zip(p_in.levels, out.levels))
    assert all(np.shares_memory(a.data, b.data) for a, b in zip(g_in, grad_out))
    assert not any("reconstructed" in label for label in registry.labels)
    assert registry.peak <= out.nbytes + largest


def test_reverse_step_lets_each_norm_cache_go_once_its_vjp_returns(monkeypatch):
    # every VJP takes its cache over: each norm's cache is freed before
    # the conv VJP that follows it, in a stored backward, which leaves no
    # array in the silo's cache, and in a reverse step's replays, in
    # the whole-tensor and in the chunked expansion stages (64 px: see the
    # multi-chunk test)
    rng = np.random.default_rng(247)
    channels = (8, 16, 24, 32)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels, spatial=64)
    out, cache = silo.forward(p, None, True)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in out.levels]
    log = watch_norm_caches(monkeypatch)
    silo.backward(cache, None, _copies(grad_out))
    assert sum(read for _, read in log) > 0
    assert all(alive == 0 for alive, _ in log), log
    assert _unique_bytes(cache) == 0

    log.clear()
    registry = LiveBytesRegistry()
    silo.backward(None, registry.add(out, "out"), grad_out, None, registry)
    assert _live_labels(registry) == {"out"}
    assert sum(read for _, read in log) > 0
    assert all(alive == 0 for alive, _ in log), log


def test_inverse_leaves_the_output_as_it_was():
    rng = np.random.default_rng(246)
    channels = (8, 16, 24)
    silos = [_random_silo(rng, channels, name="grow", expands=True),
             _random_silo(rng, channels, name="fuse")]
    out = _pyramid(rng, channels[:-1])
    for silo in silos:
        out, _ = silo.forward(out)
    before = [t.data.tobytes() for t in out.levels]
    silos[-1].inverse(out)
    assert [t.data.tobytes() for t in out.levels] == before
    invert_chain(silos, out)
    assert [t.data.tobytes() for t in out.levels] == before


@pytest.mark.parametrize("batch", [1, 2])
def test_revblock_inverse_leaves_the_output_as_it_was(batch):
    # at batch 1 a channel slice of y is contiguous already, so the split
    # must still copy it before the inverse rebuilds it in place
    rng = np.random.default_rng(247)
    spec = RevBlockSpec(channels_a=4, channels_b=8, kernel=3, expansion=2)
    blocks = [RevBlock.build(spec, name=f"rb{i}", rng=rng, dtype=np.float64)
              for i in range(2)]
    for block in blocks:
        randomize_parameters(block.parameters(), rng)
    y = Tensor(rng.standard_normal((batch, 12, 8, 8)))
    for block in blocks:
        y, _ = block.forward(y)
    before = y.data.tobytes()
    blocks[-1].inverse(y)
    assert y.data.tobytes() == before
    invert_chain(blocks, y)
    assert y.data.tobytes() == before


def test_silo_backward_matches_finite_differences():
    rng = np.random.default_rng(43)
    channels = (4, 8)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels, spatial=8, batch=1)
    r = [rng.standard_normal((1, c, 8 >> k, 8 >> k))
         for k, c in enumerate(channels)]

    def loss():
        out, _ = silo.forward(p)
        return sum(float(np.vdot(t.data, ri)) for t, ri in zip(out.levels, r)) / 10.0

    out, cache = silo.forward(p, want_cache=True)
    grad_out = [Tensor(ri / 10.0) for ri in r]
    _, gx, grads = silo.backward(cache, None, grad_out)

    params = dict(silo.parameters())
    for name in sorted(params):
        arr, grad = params[name], grads[name]
        scale = max(float(np.max(np.abs(grad))), 1e-10)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            fd = central_fd(loss, flat, int(idx), 1e-5)
            assert abs(fd - gflat[idx]) / scale < 1e-4, name

    # input gradient too
    for lvl, (t, g) in enumerate(zip(p.levels, gx)):
        flat, gflat = t.data.reshape(-1), g.data.reshape(-1)
        scale = max(float(np.max(np.abs(g.data))), 1e-10)
        for idx in rng.choice(flat.size, size=3, replace=False):
            fd = central_fd(loss, flat, int(idx), 1e-5)
            assert abs(fd - gflat[idx]) / scale < 1e-4, f"level {lvl}"


def test_revblock_backward_matches_finite_differences():
    rng = np.random.default_rng(44)
    spec = RevBlockSpec(channels_a=4, channels_b=8, kernel=3, expansion=2,
                        se_ratio=0.25)
    block = RevBlock.build(spec, name="rb", rng=rng, dtype=np.float64)
    randomize_parameters(block.parameters(), rng)
    x = Tensor(rng.standard_normal((1, 12, 8, 8)))
    r = rng.standard_normal((1, 12, 8, 8))

    def loss():
        y, _ = block.forward(x)
        return float(np.vdot(y.data, r)) / 10.0

    _, cache = block.forward(x, want_cache=True)
    gx, grads = block.backward(cache, Tensor(r / 10.0))

    params = dict(block.parameters())
    assert sorted(grads) == sorted(params)
    for name in sorted(params):
        arr, grad = params[name], grads[name]
        scale = max(float(np.max(np.abs(grad))), 1e-10)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            fd = central_fd(loss, flat, int(idx), 1e-5)
            assert abs(fd - gflat[idx]) / scale < 1e-4, name

    flat, gflat = x.data.reshape(-1), gx.data.reshape(-1)
    scale = max(float(np.max(np.abs(gx.data))), 1e-10)
    for idx in rng.choice(flat.size, size=6, replace=False):
        fd = central_fd(loss, flat, int(idx), 1e-5)
        assert abs(fd - gflat[idx]) / scale < 1e-4, "input"


def test_identity_silo_backward_passes_gradient_through():
    rng = np.random.default_rng(45)
    channels = (8, 16)
    spec = SiloSpec(levels=2, channels=channels)
    silo = Silo.build(spec, name="id", rng=rng, dtype=np.float64)  # fresh: identity
    p = _pyramid(rng, channels)
    out, cache = silo.forward(p, want_cache=True)
    grad_out = [Tensor(rng.standard_normal(t.shape)) for t in out.levels]
    _, gx, _ = silo.backward(cache, None, _copies(grad_out))
    # residual-only paths at identity init: input grad equals output grad
    for g_in, g_out in zip(gx, grad_out):
        assert np.array_equal(g_in.data, g_out.data)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_silo_counts_one_eval_per_transform():
    rng = np.random.default_rng(46)
    channels = (8, 16, 24)
    silo = _random_silo(rng, channels)
    p = _pyramid(rng, channels)
    counters = OpCounters()
    ctx = ExecContext(counters, FORWARD)
    silo.forward(p, ctx)
    n_transforms = len(silo.down) + len(silo.up)
    assert n_transforms == 6                       # 3 down pairs + 3 up pairs
    assert counters.get(FORWARD, F_EVAL) == n_transforms

    out, _ = silo.forward(p)
    counters.reset()
    silo.inverse(out, ExecContext(counters, BACKWARD))
    assert counters.get(BACKWARD, F_EVAL) == n_transforms


# ---------------------------------------------------------------------------
# specs, config round-trip, validation
# ---------------------------------------------------------------------------

def test_silo_spec_ini_round_trip():
    spec = SiloSpec(levels=3, channels=(8, 16, 24), expansion=(1, 2, 3),
                    se_ratio=0.25, se_levels=(0, 1))
    cfg = configparser.ConfigParser()
    cfg.read_string("[silo]\nlevels = 3\nchannels = 8, 16, 24\n"
                    "expansion = 1, 2, 3\nse_ratio = 0.25\nse_levels = 0, 1\n")
    assert SiloSpec.from_config(cfg["silo"]) == spec


def test_revblock_spec_ini_round_trip():
    spec = RevBlockSpec(channels_a=8, channels_b=16, kernel=5, expansion=3,
                        se_ratio=0.5)
    cfg = configparser.ConfigParser()
    cfg.read_string("[revblock]\nchannels_a = 8\nchannels_b = 16\nkernel = 5\n"
                    "expansion = 3\nse_ratio = 0.5\n")
    assert RevBlockSpec.from_config(cfg["revblock"]) == spec


def test_silo_spec_validation():
    with pytest.raises(ConfigurationError):
        SiloSpec(levels=1, channels=(8,))
    with pytest.raises(ConfigurationError):
        SiloSpec(levels=5, channels=(8, 8, 8, 8, 8))
    with pytest.raises(ConfigurationError):
        SiloSpec(levels=3, channels=(8, 8))          # channel count mismatch


def test_silo_rejects_wrong_pyramid():
    rng = np.random.default_rng(47)
    silo = _random_silo(rng, (8, 16))
    with pytest.raises(ConfigurationError):
        silo.forward(_pyramid(rng, (8, 16, 24)))     # wrong level count
    with pytest.raises(ConfigurationError):
        silo.forward(_pyramid(rng, (8, 8)))          # wrong channels


def test_pyramid_validation():
    rng = np.random.default_rng(48)
    a = Tensor(rng.standard_normal((2, 8, 16, 16)))
    bad_spatial = Tensor(rng.standard_normal((2, 16, 16, 16)))
    with pytest.raises(ConfigurationError):
        FeaturePyramid([a, bad_spatial])             # not halved
    b_wrong_batch = Tensor(rng.standard_normal((1, 16, 8, 8)))
    with pytest.raises(ConfigurationError):
        FeaturePyramid([a, b_wrong_batch])
    # non-halving layouts are allowed when explicitly requested
    FeaturePyramid([a, bad_spatial], require_halving=False)
    with pytest.raises(ConfigurationError):
        FeaturePyramid([])


def test_pyramid_nbytes_counts_all_levels():
    rng = np.random.default_rng(49)
    p = _pyramid(rng, (8, 16), spatial=16, batch=2)
    want = 2 * 8 * 16 * 16 * 8 + 2 * 16 * 8 * 8 * 8
    assert p.nbytes == want
