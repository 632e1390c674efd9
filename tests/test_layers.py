"""MBConv's small cache and the activations its backward rebuilds.

An MBConv forward keeps its input, each batch norm's cache and the
squeeze-excite vectors; its backward rebuilds the norm outputs, the
hard-swish outputs and the squeeze-excite product.  The oracle below is the
full-cache MBConv that kept every activation its VJPs read: the rebuilt
arrays must equal its stored ones byte for byte, and so must the gradients.
A replay (a forward in the backward phase) runs the expansion stage in
channel chunks and keeps their statistics in place of xhat; it must give
the forward's bits.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from revfuse import kernels as K
from revfuse.context import BACKWARD, FORWARD, ExecContext
from revfuse.coupling import MBConvTransform, randomize_parameters
from revfuse.engine import LiveBytesRegistry, _iter_arrays
from revfuse.layers import MBConv
from revfuse.tensor import Tensor

from helpers import heap_peak, rel_diff

BOTH_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
BN_MODES = pytest.mark.parametrize("train", [True, False])


# ---------------------------------------------------------------------------
# the full-cache oracle
# ---------------------------------------------------------------------------

def _hard_swish_reference(x: np.ndarray) -> np.ndarray:
    """The whole-tensor hard-swish formula, allocating its output."""
    y = x + 3.0
    np.clip(y, 0.0, 6.0, out=y)
    y *= x
    y /= 6.0
    return y


def _hard_swish_backward_reference(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """The whole-tensor slope formula, allocating a new gradient."""
    slope = 2.0 * x
    slope += 3.0
    slope /= 6.0
    slope[x <= -3.0] = 0.0
    slope[x >= 3.0] = 1.0
    slope *= gy
    return slope


def _full_cache_forward(block: MBConv, x: Tensor, ctx):
    """MBConv forward keeping every activation a VJP reads."""
    caches = []
    t = x
    if block.expand is not None:
        t, c = block.expand.forward(t); caches.append(c)
        t, c = block.bn_expand.forward(t, ctx); caches.append(c)
        pre = t
        t = Tensor(_hard_swish_reference(pre.data)); caches.append((pre,))
    t, c = block.dw.forward(t); caches.append(c)
    t, c = block.bn_dw.forward(t, ctx); caches.append(c)
    pre = t
    t = Tensor(_hard_swish_reference(pre.data)); caches.append((pre,))
    if block.se is not None:
        t, c = block.se.forward(t); caches.append(c)
    t, c = block.project.forward(t); caches.append(c)
    t, c = block.bn_project.forward(t, ctx); caches.append(c)
    return t, caches


def _full_cache_backward(block: MBConv, cache, gy: Tensor):
    caches = list(cache)
    grads = {}
    g = gy
    g, gr = block.bn_project.backward(caches.pop(), g); grads.update(gr)
    g, gr = block.project.backward(caches.pop(), g); grads.update(gr)
    if block.se is not None:
        g, gr = block.se.backward(caches.pop(), g); grads.update(gr)
    (pre,) = caches.pop()
    g = Tensor(_hard_swish_backward_reference(pre.data, g.data))
    g, gr = block.bn_dw.backward(caches.pop(), g); grads.update(gr)
    g, gr = block.dw.backward(caches.pop(), g); grads.update(gr)
    if block.expand is not None:
        (pre,) = caches.pop()
        g = Tensor(_hard_swish_backward_reference(pre.data, g.data))
        g, gr = block.bn_expand.backward(caches.pop(), g); grads.update(gr)
        g, gr = block.expand.backward(caches.pop(), g); grads.update(gr)
    return g, grads


def _stored_activations(block: MBConv, caches):
    """(expand norm output, its hard-swish, dw norm output, its hard-swish,
    squeeze-excite product) from a full cache; None where absent."""
    caches = list(caches)
    pre1 = caches[2][0] if block.expand is not None else None
    h1 = caches[3][0] if block.expand is not None else None
    k = 4 if block.expand is not None else 1
    pre2 = caches[k + 1][0]
    h2 = caches[k + 2][0]          # squeeze-excite's or project's input
    q = caches[k + 3][0] if block.se is not None else None
    return pre1, h1, pre2, h2, q


def _block(rng, dtype, *, expansion=2, se=0.25, stride=1, in_c=4, out_c=6):
    block = MBConv("mb", in_c, out_c, kernel=3 if stride == 1 else 5, stride=stride,
                   expansion=expansion, se_ratio=se, zero_final_gamma=True,
                   rng=rng, dtype=dtype)
    _randomize(block, rng)
    return block


def _randomize(block: MBConv, rng) -> None:
    randomize_parameters(block.parameters(), rng)
    for bn in (block.bn_expand, block.bn_dw, block.bn_project):
        if bn is not None:
            c = bn.state.gamma.size
            bn.state.running_mean[:] = rng.standard_normal(c)
            bn.state.running_var[:] = rng.uniform(0.5, 2.0, c)


def _pin_to_kinks(block: MBConv) -> None:
    """Make the first channels of each hard-swish input exactly -3 or +3:
    gamma 0 leaves the norm output at beta."""
    for bn in (block.bn_expand, block.bn_dw):
        if bn is not None:
            bn.state.gamma[:4] = 0.0
            bn.state.beta[:4] = [-3.0, 3.0, -3.0, 3.0]


def _ctx(train: bool) -> ExecContext:
    return ExecContext(None, FORWARD, step_key=0, train=train)


class _ByteLog(LiveBytesRegistry):
    """A registry that logs, in order, ("add", the bytes of each array) as
    an object is added, and ("died", n) as an array of the n-th add dies
    (an in-place rebuild changes the bytes in between)."""

    def __init__(self):
        super().__init__()
        self.events = []
        self._refs = []
        self._adds = 0

    def add(self, obj, label):
        arrays = list(_iter_arrays(obj))
        died = lambda _, n=self._adds: self.events.append(("died", n))
        self._refs += [weakref.ref(a, died) for a in arrays]
        self._adds += 1
        self.events.append(("add", [a.tobytes() for a in arrays]))
        return super().add(obj, label)


# ---------------------------------------------------------------------------
# kernels behind the rebuilds
# ---------------------------------------------------------------------------

@BOTH_DTYPES
@BN_MODES
def test_batch_norm_output_rebuilds_the_forward_bits(dtype, train):
    rng = np.random.default_rng(60)
    x = (rng.standard_normal((2, 5, 7, 9)) * 2.0 + 0.5).astype(dtype)
    s = K.NormState.create(5, dtype)
    s.gamma[:] = rng.standard_normal(5)
    s.beta[:] = rng.standard_normal(5)
    s.running_mean[:] = rng.standard_normal(5)
    s.running_var[:] = rng.uniform(0.5, 2.0, 5)
    y, cache = K.batch_norm(Tensor(x), s, train=train)
    rebuilt = K.batch_norm_output(cache, s)
    assert rebuilt.dtype == dtype
    assert rebuilt.tobytes() == y.data.tobytes()


@BOTH_DTYPES
@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 37, 40, 40)])
def test_hard_swish_in_place_keeps_the_formula_bits(dtype, shape):
    # (2, 37, 40, 40) runs in chunks of 20 and 17 channels
    rng = np.random.default_rng(61)
    x = (rng.standard_normal(shape) * 3.0).astype(dtype)
    x.flat[:6] = [-3.0, 3.0, -3.5, 3.5, -1.5, 0.0]
    want = _hard_swish_reference(x)
    t = Tensor(x.copy())
    y = K.hard_swish(t)
    assert y is t and y.data.tobytes() == want.tobytes()


@BOTH_DTYPES
@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 37, 40, 40), (1, 3, 300, 300)])
def test_hard_swish_backward_chunks_keep_the_formula_bits(dtype, shape):
    # kinks at exactly +-3 and negative gradients, whose sign a zero slope
    # keeps (-0.0); (1, 3, 300, 300) is one channel a chunk
    rng = np.random.default_rng(62)
    x = (rng.standard_normal(shape) * 3.0).astype(dtype)
    x[:, :, 0, :4] = [-3.0, 3.0, -3.5, 3.5]
    gy = rng.standard_normal(shape).astype(dtype)
    want = _hard_swish_backward_reference(x, gy)
    g = Tensor(gy.copy())
    gx = K.hard_swish_backward(Tensor(x), g)
    assert gx is g and gx.data.tobytes() == want.tobytes()


def test_hard_swish_backward_scratch_is_a_chunk():
    # the whole-tensor formula allocated a slope and a mask as large as the
    # input (1.25x its bytes in float32); the chunked one, 320 KiB
    rng = np.random.default_rng(63)
    x = Tensor(rng.standard_normal((2, 192, 32, 32)).astype(np.float32))
    g = Tensor(rng.standard_normal(x.shape).astype(np.float32))
    _, peak = heap_peak(lambda: K.hard_swish_backward(x, g))
    assert peak <= x.nbytes // 4, (peak, x.nbytes)


# ---------------------------------------------------------------------------
# MBConv
# ---------------------------------------------------------------------------

GEOMETRIES = pytest.mark.parametrize("expansion,se,stride", [
    (1, None, 1), (1, None, 2), (1, 0.5, 1), (1, 0.5, 2),
    (3, None, 1), (3, None, 2), (3, 0.5, 1), (3, 0.5, 2),
])


@BOTH_DTYPES
@BN_MODES
@GEOMETRIES
def test_mbconv_backward_is_the_full_cache_backward_bit_for_bit(
        dtype, train, expansion, se, stride):
    rng = np.random.default_rng(64)
    block = _block(rng, dtype, expansion=expansion, se=se, stride=stride)
    _pin_to_kinks(block)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(dtype))
    y_ref, full = _full_cache_forward(block, x, _ctx(train))
    y, cache = block.forward(x, _ctx(train))
    assert y.data.tobytes() == y_ref.data.tobytes()
    gy = Tensor(rng.standard_normal(y.shape).astype(dtype))
    gx_ref, grads_ref = _full_cache_backward(block, full, Tensor(gy.data.copy()))
    gx, grads = block.backward(cache, gy)
    assert gx.data.tobytes() == gx_ref.data.tobytes()
    assert list(grads) == list(grads_ref)
    for name, g in grads_ref.items():
        assert grads[name].tobytes() == g.tobytes(), name


def _watch_vjp_inputs(block: MBConv, monkeypatch, seen: list) -> None:
    """Log into ``seen`` (VJP, bytes of the activation it reads) as the
    backward runs, and after the depthwise VJP ("dw gave", bytes of the
    input gradient it returns)."""

    def watch(owner, name, tag, read):
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            seen.append((tag, read(args).data.tobytes()))
            out = inner(*args, **kwargs)
            if tag == "dw":
                seen.append(("dw gave", out[0].data.tobytes()))
            return out

        monkeypatch.setattr(owner, name, wrapped)

    watch(block.project, "backward", "project", lambda a: a[0][0])
    watch(block.dw, "backward", "dw", lambda a: a[0][0])
    if block.se is not None:
        watch(block.se, "backward", "se", lambda a: a[0][0])
    watch(K, "hard_swish_backward", "hard_swish", lambda a: a[0])


@BOTH_DTYPES
@BN_MODES
@pytest.mark.parametrize("expansion,se", [(1, None), (3, 0.5)])
def test_rebuilt_activations_are_the_forward_bits_and_registered(
        dtype, train, expansion, se, monkeypatch):
    rng = np.random.default_rng(65)
    block = _block(rng, dtype, expansion=expansion, se=se)
    _pin_to_kinks(block)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(dtype))
    _, full = _full_cache_forward(block, x, _ctx(train))
    pre1, h1, pre2, h2, q = _stored_activations(block, full)
    for pre in (pre1, pre2):
        assert pre is None or (np.any(pre.data == -3.0) and np.any(pre.data == 3.0))
    y, cache = block.forward(x, _ctx(train))
    log = _ByteLog()
    _watch_vjp_inputs(block, monkeypatch, log.events)
    block.backward(cache, Tensor(rng.standard_normal(y.shape).astype(dtype)), log)
    log.assert_empty()
    # one timeline of the VJPs' reads and the registry's events.  Each VJP
    # reads the forward's activation: the project conv the squeeze-excite
    # product or the hard-swish output, squeeze-excite the hard-swish
    # output, the hard-swish VJP the norm output, the dw conv the expansion
    # stage's hard-swish output or the input.  Each rebuild is registered
    # as it is made and dies after its last VJP: a norm output, turned
    # into its hard-swish in place; the squeeze-excite product while the
    # hard-swish output is alive.  The norm output a hard-swish VJP reads is
    # chunk scratch, registered by no one; the expansion stage's hard-swish
    # output dies holding the input gradient the dw VJP wrote over it, once
    # the hard-swish VJP has read that
    add = lambda t: ("add", [t.data.tobytes()])
    want = [add(pre2)] + (
        [add(q), ("project", q.data.tobytes()), ("died", 1), ("se", h2.data.tobytes())]
        if se else [("project", h2.data.tobytes())]) + [
        ("died", 0), ("hard_swish", pre2.data.tobytes())]
    gave = [b for tag, b in log.events if tag == "dw gave"]
    assert len(gave) == 1
    if pre1 is None:
        want += [("dw", x.data.tobytes()), ("dw gave", gave[0])]
    else:
        want += [add(pre1), ("dw", h1.data.tobytes()), ("dw gave", gave[0]),
                 ("hard_swish", pre1.data.tobytes()), ("died", 2 if se else 1)]
    assert log.events == want


@pytest.mark.parametrize("expansion,se", [(1, None), (3, None), (3, 0.5)])
def test_mbconv_cache_holds_one_activation_per_batch_norm(expansion, se):
    rng = np.random.default_rng(66)
    block = _block(rng, np.float64, expansion=expansion, se=se)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)))
    _, cache = block.forward(x)
    norms = 3 if expansion > 1 else 2
    held = [a for a in _iter_arrays(cache) if a.ndim == 4 and a is not x.data]
    assert len(held) <= norms, [a.shape for a in held]


# ---------------------------------------------------------------------------
# the chunked replay
# ---------------------------------------------------------------------------

def test_chunk_rule():
    # S0 widths at 64 px, batch 2: level 0 is 48 channels at 16x16, so a
    # chunk holds at most 65536 // 512 = 128 channels; 144 split equally
    rng = np.random.default_rng(67)
    shape = (2, 48, 16, 16)
    widths = lambda block, recompute: [
        cs.stop - cs.start for cs in block.chunks(shape, recompute)]
    for expansion, want in [(2, [96]), (3, [72, 72]), (4, [96, 96])]:
        block = MBConv("mb", 48, 8, kernel=3, stride=1,
                       expansion=expansion, rng=rng, dtype=np.float32)
        assert widths(block, True) == want
        assert widths(block, False) == [48 * expansion]
    # at 128 px the budget is 32 channels, so the input's 48 set the width
    assert [cs.stop - cs.start for cs in block.chunks((2, 48, 32, 32), True)] == [48] * 4


# (src, dst, se): a stride-8 down transform, an expanding up transform
# with squeeze-excite; 4 input channels at 64x64 and expansion 6 make
# three 8-channel chunks
CHUNKED = pytest.mark.parametrize("src,dst,se", [(0, 3, None), (2, 1, 0.25)])
GEOMETRY = {(0, 3): dict(kernel=17, stride=8), (2, 1): dict(kernel=3, upsample=2)}


def _chunked(rng, dtype, src, dst, se):
    t = MBConvTransform("t", 4, 6, **GEOMETRY[(src, dst)], expansion=6, se_ratio=se,
                        rng=rng, dtype=dtype)
    _randomize(t.block, rng)
    x = Tensor(rng.standard_normal((2, 4, 64, 64)).astype(dtype))
    assert len(t.block.chunks(x.shape, True)) == 3
    return t, x


def _running(block: MBConv) -> list:
    return [a.tobytes() for bn in (block.bn_expand, block.bn_dw, block.bn_project)
            for a in (bn.state.running_mean, bn.state.running_var)]


@BOTH_DTYPES
@BN_MODES
@CHUNKED
def test_chunked_replay_keeps_the_forward_bits(dtype, train, src, dst, se):
    rng = np.random.default_rng(68)
    t, x = _chunked(rng, dtype, src, dst, se)
    y, cache = t.forward(x, _ctx(train))
    running = _running(t.block)
    y_r, cache_r = t.forward(x, ExecContext(None, BACKWARD, train=train), True)
    assert y_r.data.tobytes() == y.data.tobytes()
    assert _running(t.block) == running         # a replay: no fold
    (_, norms, se_vectors), _ = cache
    (x_r, norms_r, se_r), _ = cache_r
    assert x_r is x
    for c, c_r in zip(norms[1:], norms_r[1:]):  # depthwise and project norms
        assert [a.tobytes() for a in c[:2]] == [a.tobytes() for a in c_r[:2]]
    for a, b in zip(se_vectors or (), se_r or ()):
        assert a.tobytes() == b.tobytes()
    # the expand norm keeps, per chunk, (mean, inv_std, train): no array
    # at the source resolution besides the input
    assert len(norms_r[0]) == 3
    assert all(mean.ndim == 1 and inv_std.shape == mean.shape and flag is train
               for mean, inv_std, flag in norms_r[0])
    assert [c[1].tobytes() for c in norms_r[0]] == [
        norms[0][0][1][cs].tobytes() for cs in t.block.chunks(x.shape, True)]


@BN_MODES
@CHUNKED
def test_chunked_replay_gradients_match_the_forward_cache(train, src, dst, se):
    rng = np.random.default_rng(69)
    t, x = _chunked(rng, np.float64, src, dst, se)
    y, cache = t.forward(x, _ctx(train))
    _, cache_r = t.forward(x, ExecContext(None, BACKWARD, train=train), True)
    gy = rng.standard_normal(y.shape)
    (_, norms, _), _ = cache
    dw_norm_bytes = norms[1][0].nbytes          # before backward lets go of it
    gx, grads = t.backward(cache, Tensor(gy.copy()))
    log = LiveBytesRegistry()
    gx_r, grads_r = t.backward(cache_r, Tensor(gy.copy()), log)
    log.assert_empty()
    assert rel_diff(gx_r.data, gx.data) < 1e-12
    assert list(grads_r) == list(grads)
    for name in grads:
        assert rel_diff(grads_r[name], grads[name]) < 1e-12, name
    # what the VJP held rebuilt at once: two 8-channel source-resolution
    # chunks (the recomputed xhat and the hard-swish output), or the
    # depthwise stage's destination-resolution rebuilds (two with
    # squeeze-excite)
    chunk = 2 * 8 * 64 * 64 * 8
    assert log.peak == max(2 * chunk, 2 * dw_norm_bytes if se else dw_norm_bytes)
