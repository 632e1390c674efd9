"""Deterministic numpy kernels with explicit backward companions.

Every kernel here is a pure function of its inputs, so repeated evaluation
is bit-identical for given shapes and BLAS thread count — a property the
reversible engine leans on (inversion tests, byte-identical CSV runs).
Convolution comes in the two geometries the model builds, and has no
bias: every conv feeds a batch norm, whose shift would absorb one.  A 1x1
conv (stride 1, no padding, one group) is one batched BLAS ``matmul`` of
the (out, in) weight matrix with the (n, in, h*w) input; its backward is
two more, ``Wᵀ·gy`` and ``gy·xᵀ`` summed over the batch.  Beside its two
gradients it holds one row block of a per-sample term, or for a small
weight a group of whole terms, of about ``CHUNK_ELEMENTS`` elements.
``ConvParams`` refuses any other conv that mixes channels when it is
made.  Depthwise convolution is polyphase:
the unpadded input is split once into its stride phases, the kernel into
a grid of at most D*D phase-weight blocks (D = 3 for every geometry the
model builds), and each block offset is one channel-batched ``matmul``
added into a clipped output window, so no padded copy is made.  Its
backward runs a channel chunk at a time: it stacks the chunk's output
gradient at those block offsets, takes both gradients with two matmuls
and writes them straight into place, the input gradient possibly over
the input itself.  So no depthwise scratch array scales with the whole
layer's kernel: beside its output, the forward holds the input's phases,
one block's phase weights and product, and the temporaries of the
strided window add; beside its gradients, the backward holds one channel
chunk's phases, stack, phase weights and weight-gradient blocks, and at
stride 1 that stack is at most about twice the input.  Each
geometry's block offsets, windows and tap placement are worked out once
and cached.  Bilinear upsampling is a gather forward and a separable
matrix product backward.  No FFT and no im2col.

Forward kernels are bit-stable: a rewrite for speed may cut passes and
temporaries, but keeps every float operation, its operands and its order,
so outputs stay bit-identical (the tests pin them against one-line
reference formulas).  Inversion replays forward kernels only, and float32
reconstruction drift sits close to the ``verify-inverse`` tolerance, so
reordering a forward sum re-rolls which seeds pass.  Backward kernels carry
no such pin and may reorder their arithmetic.

Backward companions return gradients with respect to every input that can
carry one.  They are hand-derived vector-Jacobian products; the test suite
checks each against central finite differences and adjoint identities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Weights and geometry for a 2-D convolution.

    ``weights`` has shape (out_c, in_c // groups, kh, kw).  Two geometries
    run: depthwise (groups == in_c == out_c, one input channel per group)
    and 1x1 (stride 1, padding 0, one group); ``depthwise`` records which.
    Any other geometry raises ``ConfigurationError`` here.
    """

    weights: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1
    depthwise: bool = field(init=False)

    def __post_init__(self):
        w = self.weights
        if not isinstance(w, np.ndarray) or w.ndim != 4:
            raise ConfigurationError("conv weights must be a rank-4 ndarray")
        if self.stride < 1 or self.padding < 0 or self.groups < 1:
            raise ConfigurationError(
                f"invalid conv geometry: stride={self.stride} "
                f"padding={self.padding} groups={self.groups}"
            )
        self.depthwise = self.groups == self.in_channels == self.out_channels
        pointwise = (self.kernel == (1, 1) and self.stride == 1
                     and self.padding == 0 and self.groups == 1)
        if not (self.depthwise or pointwise):
            raise ConfigurationError(
                f"conv2d runs depthwise and 1x1 (stride 1, padding 0, groups 1) "
                f"convs, not kernel {self.kernel} stride {self.stride} padding "
                f"{self.padding} groups {self.groups} from {self.in_channels} to "
                f"{self.out_channels} channels"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1] * self.groups

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ConfigurationError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


# -- depthwise: polyphase ----------------------------------------------------
#
# With stride s, kernel row ky reads input row s*oy + ky - pad.  Writing
# ky - pad = s*dy + ry (0 <= ry < s) splits that into a stride phase ry and a
# block offset dy: output row oy reads row oy + dy of phase ry.  So the input
# is split once into its s*s phases, laid out (c, s*s, n*hq*wq), and the
# kernel into a D*D grid of (s, s) phase-weight blocks, one per block offset
# (D = 3 for a (2s+1)-tap kernel with pad s).  Borders are handled by
# clipping each block offset's window; no padded copy is made.

# Fewest channels in a chunk of the depthwise backward: smaller chunks save
# little heap, and their numpy calls each move too little data to pay for
# the Python around them.  A stride-1 chunk stacks its output gradient at
# D*D block offsets, so it is cut further, to 2c // (D*D) channels, which
# keeps its stack within about twice the input, but to no fewer than half
# this many.
_DW_CHUNK_CHANNELS = 16


@dataclass(frozen=True)
class _Polyphase:
    """One depthwise geometry.  ``offsets``: (k, output window, phase
    window) per block offset k whose output window is not empty; output
    (oy, ox) reads phase position (oy + dy, ox + dx).  ``blocks``: (whole,
    block window, tap window) per k, where the block window of a
    (c, 1, s, s) block takes the tap window of the (c, 1, kh, kw) kernel,
    filling it if ``whole``.  ``grad_slots``: each tap's index in a
    channel's flattened (s*s, D*D) weight-gradient blocks; shared by every
    caller, so only read.  It is left writable because ``take`` copies a
    read-only index array on every call."""

    s: int
    hq: int
    wq: int
    offsets: tuple
    blocks: tuple
    grad_slots: np.ndarray


@functools.lru_cache(maxsize=256)
def _polyphase(h: int, w: int, kh: int, kw: int, s: int, pad: int) -> _Polyphase:
    """The geometry of a depthwise conv of an (h, w) image: a pure function
    of its arguments, cached, so a layer works it out once."""
    oh, ow = conv_out_size(h, kh, s, pad), conv_out_size(w, kw, s, pad)
    hq, wq = -(-h // s), -(-w // s)
    # block offsets along each axis run from first to (k - 1 - pad) // s;
    # tap (ky, kx) sits at (o + ky, o + kx) of the (D*s, D*s) block grid
    first, o = -pad // s, (-pad) % s
    dy_n, dx_n = ((k - 1 - pad) // s - first + 1 for k in (kh, kw))
    offsets, blocks = [], []
    for k in range(dy_n * dx_n):
        by, bx = divmod(k, dx_n)
        dy, dx = first + by, first + bx
        y0, y1 = max(0, -dy), min(oh, hq - dy)
        x0, x1 = max(0, -dx), min(ow, wq - dx)
        if y0 < y1 and x0 < x1:
            offsets.append((k, np.s_[..., y0:y1, x0:x1],
                            np.s_[..., y0 + dy : y1 + dy, x0 + dx : x1 + dx]))
        ky0, ky1 = max(0, s * by - o), min(kh, s * by + s - o)
        kx0, kx1 = max(0, s * bx - o), min(kw, s * bx + s - o)
        ry, rx = ky0 + o - s * by, kx0 + o - s * bx
        blocks.append((ky1 - ky0 == kx1 - kx0 == s,
                       np.s_[..., ry : ry + ky1 - ky0, rx : rx + kx1 - kx0],
                       np.s_[..., ky0:ky1, kx0:kx1]))
    ky, kx = np.arange(kh)[:, None] + o, np.arange(kw) + o
    grad_slots = (ky % s * s + kx % s) * dy_n * dx_n + ky // s * dx_n + kx // s
    return _Polyphase(s, hq, wq, tuple(offsets), tuple(blocks), grad_slots.ravel())


def _segments(size: int, s: int) -> list[tuple[int, int, int]]:
    """Row ranges of ``size`` as (first block, end block, rows per block):
    the whole s-row blocks, then the partial block, if any."""
    full, rest = divmod(size, s)
    return [(0, full, s)] * (full > 0) + [(full, full + 1, rest)] * (rest > 0)


def _phase_views(img: np.ndarray, ph: np.ndarray, s: int, hq: int, wq: int):
    """Matching views of an (n, c, h, w) image and of its stride phases
    ph (c, s*s, n*hq*wq), where phase ry*s + rx at (n, i, j) is
    img[n, c, s*i + ry, s*j + rx]; at most four pairs.  Channels lead both
    views, and ph may hold fewer of them: a chunk's phases then match a
    channel slice of the image view."""
    n, c, h, w = img.shape
    grid = ph.reshape(-1, s, s, n, hq, wq).transpose(0, 3, 4, 1, 5, 2)
    for i0, i1, r in _segments(h, s):
        for j0, j1, q in _segments(w, s):
            a = img[:, :, i0 * s : i0 * s + (i1 - i0) * r, j0 * s : j0 * s + (j1 - j0) * q]
            yield (a.reshape(n, c, i1 - i0, r, j1 - j0, q).transpose(1, 0, 2, 3, 4, 5),
                   grid[:, :, i0:i1, :r, j0:j1, :q])


def _phases(x: np.ndarray, pp: _Polyphase) -> np.ndarray:
    """(c, s*s, n*hq*wq) stride phases of x, zero past its border."""
    n, c, h, w = x.shape
    s = pp.s
    alloc = np.empty if h % s == 0 and w % s == 0 else np.zeros
    ph = alloc((c, s * s, n * pp.hq * pp.wq), dtype=x.dtype)
    for a, g in _phase_views(x, ph, s, pp.hq, pp.wq):
        g[...] = a
    return ph


def _dwconv(x: np.ndarray, p: ConvParams, oh: int, ow: int) -> np.ndarray:
    # Per block offset: its (c, 1, s*s) phase weights @ the phases, added
    # into its output window.  At stride 1 a block is one tap, read as a
    # view of the kernel, and the contraction has length 1, where a
    # broadcast multiply gives the same bits as matmul and runs about 3x
    # faster.  Otherwise each block's weights are built in turn in one
    # buffer, so the scratch is the phases and one block's weights and
    # product.
    n, c, h, w = x.shape
    pp = _polyphase(h, w, *p.kernel, p.stride, p.padding)
    s, ph = pp.s, _phases(x, pp)
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    z = np.empty((c, 1, ph.shape[2]), dtype=x.dtype)
    zv = z.reshape(c, n, pp.hq, pp.wq).transpose(1, 0, 2, 3)
    taps = p.weights.reshape(c, -1, 1)
    wk = np.empty((c, 1, s * s), dtype=p.weights.dtype)
    block = wk.reshape(c, 1, s, s)
    for k, out_win, ph_win in pp.offsets:
        if s == 1:
            np.multiply(taps[:, k : k + 1], ph, out=z)
        else:
            whole, block_win, tap_win = pp.blocks[k]
            if not whole:
                wk.fill(0)
            block[block_win] = p.weights[tap_win]
            np.matmul(wk, ph, out=z)
        out[out_win] += zv[ph_win]
    return out


def _dwconv_backward(x: np.ndarray, p: ConvParams, gy: np.ndarray,
                     overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    # Channels run in chunks, and the scratch is one chunk's stack, phases,
    # phase weights and weight-gradient blocks, each a buffer that every
    # chunk reuses.  A chunk's gy is stacked at the D*D block-offset shifts,
    # and its taps are placed in its phase weights a block at a time.  The
    # weight-gradient blocks are phases @ stackᵀ, read back into grad_w's
    # taps by the index map.  The phases of the input gradient are phase
    # weightsᵀ @ stack; they overwrite the chunk's input phases once the
    # weight gradient has read them, and go straight into gx.  The four
    # buffers together stay within a quarter of the input's size, unless
    # that would cut the chunk below _DW_CHUNK_CHANNELS; at stride 1 the
    # stack stays within about twice the input (see _DW_CHUNK_CHANNELS).
    # A chunk's size leaves each channel's products as they are, so it
    # changes no bit of either gradient.  Each chunk of x is
    # copied into its phases before that chunk of gx is written, so with
    # ``overwrite`` gx is x itself.
    n, c, h, w = x.shape
    pp = _polyphase(h, w, *p.kernel, p.stride, p.padding)
    s, d2, m = pp.s, len(pp.blocks), n * pp.hq * pp.wq
    s2 = s * s
    step = min(c, max(_DW_CHUNK_CHANNELS,
                      c * s2 * m // (4 * ((d2 + s2) * m + 2 * d2 * s2))))
    if s == 1:
        step = min(step, max(_DW_CHUNK_CHANNELS // 2, 2 * c // d2))
    gx = x if overwrite else np.empty_like(x)
    gw = np.empty(p.weights.shape, dtype=gy.dtype)
    # every chunk writes the stack and the phase weights at the same
    # places, so what lies outside those stays zero; the phases, where the
    # image leaves a partial stride block, must be zeroed for each chunk
    stack = np.zeros((step, d2, m), dtype=gy.dtype)
    phases = np.empty((step, s2, m), dtype=x.dtype)
    wb = np.zeros((step, d2, s2), dtype=p.weights.dtype)
    gblk = np.empty((step, s2, d2), dtype=gy.dtype)
    sv = stack.reshape(step, d2, n, pp.hq, pp.wq)
    wbv = wb.reshape(step, d2, 1, s, s)
    gyc = gy.transpose(1, 0, 2, 3)
    gw_taps, gblk_taps = gw.reshape(c, -1), gblk.reshape(step, -1)
    x_views = list(_phase_views(x, phases, s, pp.hq, pp.wq))
    gx_views = list(_phase_views(gx, phases, s, pp.hq, pp.wq))
    for c0 in range(0, c, step):
        c1 = min(c, c0 + step)
        nc = c1 - c0
        for k, out_win, ph_win in pp.offsets:
            sv[:nc, k][ph_win] = gyc[c0:c1][out_win]
        if h % s or w % s:
            phases.fill(0)
        for a, g in x_views:
            g[:nc] = a[c0:c1]
        wc = p.weights[c0:c1]
        for k, (_, block_win, tap_win) in enumerate(pp.blocks):
            wbv[:nc, k][block_win] = wc[tap_win]
        ph, st = phases[:nc], stack[:nc]
        np.matmul(ph, st.transpose(0, 2, 1), out=gblk[:nc])
        # every index is in range; "clip" lets take write into gw unbuffered
        gblk_taps[:nc].take(pp.grad_slots, 1, gw_taps[c0:c1], "clip")
        np.matmul(wb[:nc].transpose(0, 2, 1), st, out=ph)
        for a, g in gx_views:
            a[c0:c1] = g[:nc]
    return gx, gw


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise ConfigurationError(
            f"conv expects {p.in_channels} input channels, got {c}"
        )
    kh, kw = p.kernel
    oh = conv_out_size(h, kh, p.stride, p.padding)
    ow = conv_out_size(w, kw, p.stride, p.padding)

    if p.depthwise:
        out = _dwconv(x.data, p, oh, ow)
    else:
        # (n, oc, h*w) = (oc, c) @ (n, c, h*w)
        out = np.matmul(p.weights.reshape(p.out_channels, c), x.data.reshape(n, c, h * w))
        out = out.reshape(n, p.out_channels, oh, ow)
    return Tensor(out)


def conv2d_backward(x: Tensor, p: ConvParams, gy: Tensor,
                    overwrite: bool = False) -> tuple[Tensor, np.ndarray]:
    """VJP of conv2d: returns (grad_x, grad_weights).  With ``overwrite``,
    a depthwise grad_x is written over ``x``, which the caller gives up."""
    n, c, h, w = x.shape
    gyd = gy.data

    if p.depthwise:
        gx, gw = _dwconv_backward(x.data, p, gyd, overwrite)
    else:
        # grad_x: Wᵀ·gy; grad_w: gy·xᵀ summed over the batch in sample
        # order, which has the bits of summing the batched product over
        # axis 0.  A weight of at most CHUNK_ELEMENTS / 2 elements takes
        # its per-sample terms a group of samples at a time, within
        # CHUNK_ELEMENTS, and each group's first term takes the running
        # sum.  A larger weight has sample 0's term written into grad_w,
        # and each later sample's added in row blocks of about
        # CHUNK_ELEMENTS elements (at least 64 rows), so no term the size
        # of the weight is held beside it.  Whether a row block has the
        # bits of the whole product depends on the BLAS and the shape; the
        # tests pin the geometries the benchmark builds.
        oc = p.out_channels
        wm = p.weights.reshape(oc, c)
        g = gyd.reshape(n, oc, h * w)
        xt = x.data.reshape(n, c, h * w).swapaxes(-1, -2)
        gx = np.matmul(wm.T, g).reshape(n, c, h, w)
        if wm.size > CHUNK_ELEMENTS // 2:
            gw = np.matmul(g[0], xt[0])
            rows = max(64, CHUNK_ELEMENTS // c)
            for a in range(1, n):
                for r0 in range(0, oc, rows):
                    gw[r0 : r0 + rows] += np.matmul(g[a, r0 : r0 + rows], xt[a])
        else:
            step, gw = CHUNK_ELEMENTS // wm.size, None
            for a in range(0, n, step):
                terms = np.matmul(g[a : a + step], xt[a : a + step])
                if gw is not None:
                    terms[0] += gw
                gw = np.add.reduce(terms, axis=0, out=gw)
                del terms
        gw = gw.reshape(p.weights.shape)
    return Tensor(np.ascontiguousarray(gx)), gw


def conv2d_macs(in_shape: tuple[int, int, int, int], p: ConvParams) -> int:
    """Analytic multiply-accumulate count: out_elems * in_c_per_group * kh * kw."""
    n, c, h, w = in_shape
    kh, kw = p.kernel
    oh = conv_out_size(h, kh, p.stride, p.padding)
    ow = conv_out_size(w, kw, p.stride, p.padding)
    return n * p.out_channels * oh * ow * (c // p.groups) * kh * kw


# ---------------------------------------------------------------------------
# bilinear upsampling
# ---------------------------------------------------------------------------

def _bilinear_axis(in_size: int, factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-pixel-center source indices and blend weights for one axis.

    Output position i samples source coordinate (i + 0.5)/factor - 0.5,
    clamped to the image border.
    """
    out = in_size * factor
    src = (np.arange(out, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, float(in_size - 1))
    i0 = np.minimum(np.floor(src).astype(np.int64), in_size - 1)
    i1 = np.minimum(i0 + 1, in_size - 1)
    frac = src - i0
    return i0, i1, frac


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    if factor < 1:
        raise ConfigurationError(f"upsample factor must be >= 1, got {factor}")
    iy0, iy1, fy = _bilinear_axis(x.h, factor)
    ix0, ix1, fx = _bilinear_axis(x.w, factor)
    fy = fy.astype(x.dtype)[:, None]
    fx = fx.astype(x.dtype)[None, :]
    d = x.data
    # blend columns at the input height, then gather rows and blend them;
    # a row gather is an exact copy, so each output element sees the same
    # arithmetic as blending the four gathered corners
    cols = (1 - fx) * d[..., ix0] + fx * d[..., ix1]
    out = cols[:, :, iy0]
    out *= 1 - fy
    bot = cols[:, :, iy1]
    bot *= fy
    out += bot
    return Tensor(out)


def _bilinear_matrix(in_size: int, factor: int, dtype) -> np.ndarray:
    """(in_size*factor, in_size) interpolation matrix of one axis: row i
    blends the two source samples that output position i reads."""
    i0, i1, frac = _bilinear_axis(in_size, factor)
    frac = frac.astype(dtype)
    rows = np.arange(i0.size)
    a = np.zeros((i0.size, in_size), dtype=dtype)
    a[rows, i0] = 1 - frac
    a[rows, i1] += frac  # i1 == i0 only at the clamped border, where frac == 0
    return a


def bilinear_upsample_backward(in_shape, factor: int, gy: Tensor) -> Tensor:
    """Transpose of bilinear_upsample as separable matrix products Ayᵀ·g·Ax."""
    n, c, h, w = in_shape
    ay = _bilinear_matrix(h, factor, gy.dtype)
    ax = _bilinear_matrix(w, factor, gy.dtype)
    gx = ay.T @ (gy.data.reshape(-1, gy.w) @ ax).reshape(n, c, gy.h, w)
    return Tensor(gx)


# ---------------------------------------------------------------------------
# space-to-depth / depth-to-space (exactly invertible pixel shuffle)
# ---------------------------------------------------------------------------

def space_to_depth(x: Tensor, block: int) -> Tensor:
    n, c, h, w = x.shape
    if block < 1 or h % block or w % block:
        raise ConfigurationError(
            f"space_to_depth block {block} does not divide spatial dims {(h, w)}"
        )
    v = x.data.reshape(n, c, h // block, block, w // block, block)
    v = v.transpose(0, 1, 3, 5, 2, 4)  # (n, c, by, bx, h/b, w/b)
    return Tensor(np.ascontiguousarray(v).reshape(n, c * block * block, h // block, w // block))


def depth_to_space(x: Tensor, block: int) -> Tensor:
    n, c, h, w = x.shape
    if block < 1 or c % (block * block):
        raise ConfigurationError(
            f"depth_to_space block {block} does not divide channel count {c}"
        )
    co = c // (block * block)
    v = x.data.reshape(n, co, block, block, h, w)
    v = v.transpose(0, 1, 4, 2, 5, 3)  # (n, co, h, by, w, bx)
    return Tensor(np.ascontiguousarray(v).reshape(n, co, h * block, w * block))


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"elementwise add shape mismatch {a.shape} vs {b.shape}")
    return Tensor(a.data + b.data)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """``a - b`` into ``a``'s own array; returns ``a``."""
    if a.shape != b.shape:
        raise ConfigurationError(f"elementwise sub shape mismatch {a.shape} vs {b.shape}")
    np.subtract(a.data, b.data, out=a.data)
    return a


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# Elements in one channel chunk of hard-swish's or of its backward's
# scratch, and of a replayed MBConv expansion stage unless its input is
# wider (``layers.MBConv.chunks``); toy tensors run as one chunk.  Also
# about the most elements a 1x1 weight gradient holds beside itself: a
# group of per-sample terms, or a row block of one (``conv2d_backward``).
CHUNK_ELEMENTS = 1 << 16


def _hswish_chunks(d: np.ndarray, *dtypes):
    """Channel chunks of ``d`` with one scratch buffer per dtype, sized to
    the chunk: yields (chunk of d, channel slice, buffers cut to it)."""
    n, c, h, w = d.shape
    step = min(c, max(1, CHUNK_ELEMENTS // (n * h * w)))
    bufs = [np.empty((n, step, h, w), dtype=dt) for dt in dtypes]
    for c0 in range(0, c, step):
        dc = d[:, c0 : c0 + step]
        yield dc, slice(c0, c0 + step), [b[:, : dc.shape[1]] for b in bufs]


def hard_swish(x: Tensor) -> Tensor:
    """x * clamp(x + 3, 0, 6) / 6 — piecewise-polynomial swish, written over
    ``x``, which the caller gives up.

    It runs a channel chunk at a time, so the only scratch is a chunk of
    ``clamp(x + 3, 0, 6)``.
    """
    for dc, _, (t,) in _hswish_chunks(x.data, x.dtype):
        np.add(dc, 3.0, out=t)
        np.clip(t, 0.0, 6.0, out=t)
        dc *= t
        dc /= 6.0
    return x


def hard_swish_backward(x: Tensor, gy: Tensor) -> Tensor:
    """VJP of hard_swish, written into ``gy``; its slope is written over
    ``x``.  The caller gives up both.

    The slope is (2x + 3) / 6, set to 0 at and below -3 and to 1 at and
    above 3.  It is built a channel chunk at a time, after that chunk's two
    masks are taken from x, with the same float operations as the
    whole-tensor formula, so the bits do not change.
    """
    g = gy.data
    for slope, cs, (low, high) in _hswish_chunks(x.data, bool, bool):
        np.less_equal(slope, -3.0, out=low)
        np.greater_equal(slope, 3.0, out=high)
        slope *= 2.0
        slope += 3.0
        slope /= 6.0
        np.copyto(slope, 0.0, where=low)
        np.copyto(slope, 1.0, where=high)
        g[:, cs] *= slope
    return gy


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return gy * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free at both tails
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return gy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class NormState:
    """Per-channel affine batch-norm state.

    ``momentum`` is the decay of the running averages:
    running <- momentum * running + (1 - momentum) * batch_stat.
    Biased (1/m) batch variance is used both for normalization and for the
    running average.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    epsilon: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise ConfigurationError(f"batch-norm momentum must be in (0, 1), got {self.momentum}")
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"batch-norm epsilon must be > 0, got {self.epsilon}")

    @staticmethod
    def create(channels: int, dtype, zero_gamma: bool = False) -> "NormState":
        init = np.zeros if zero_gamma else np.ones
        return NormState(
            gamma=init(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def batch_norm(x: Tensor, s: NormState, train: bool = True, fold: bool = True,
               mean_out: np.ndarray | None = None) -> tuple[Tensor, tuple]:
    """Normalize per channel; returns (y, cache) for the backward pass.

    Train mode normalizes by the current batch statistics and, with
    ``fold``, folds them into the running averages; a replay passes
    ``fold=False`` and normalizes with the same bits.  Eval mode
    normalizes by the running averages and never mutates state.  Given
    ``mean_out``, the mean subtracted is written there; with it and the
    cache's inv_std, ``batch_norm_cache`` rebuilds the cache.
    """
    d = x.data
    axes = (0, 2, 3)
    if train:
        mean = d.mean(axis=axes)
        xhat = d - mean[None, :, None, None]
        y = np.multiply(xhat, xhat)
        # biased variance, rounded as ndarray.var rounds it: the sum divided
        # by an intp count in float64, then cast to the array's dtype
        var = np.add.reduce(y, axis=axes)
        np.true_divide(var, np.intp(d.size // d.shape[1]), out=var, casting="unsafe")
        if fold:
            m = s.momentum
            s.running_mean[...] = m * s.running_mean + (1.0 - m) * mean
            s.running_var[...] = m * s.running_var + (1.0 - m) * var
    else:
        xhat = d - s.running_mean[None, :, None, None]
        y = np.empty_like(xhat)
        var = s.running_var
    if mean_out is not None:
        mean_out[...] = mean if train else s.running_mean
    inv_std = 1.0 / np.sqrt(var + np.asarray(s.epsilon, dtype=d.dtype))
    xhat *= inv_std[None, :, None, None]
    cache = (xhat, inv_std, train)
    return Tensor(batch_norm_output(cache, s, out=y)), cache


def batch_norm_cache(x: Tensor, mean, inv_std, train: bool) -> tuple:
    """The cache ``batch_norm`` made of ``x``, rebuilt bit for bit from the
    mean it subtracted and its inv_std, written over ``x``, which the
    caller gives up."""
    xhat = x.data
    xhat -= mean[None, :, None, None]
    xhat *= inv_std[None, :, None, None]
    return xhat, inv_std, train


def batch_norm_output(cache: tuple, s: NormState, out: np.ndarray | None = None) -> np.ndarray:
    """gamma * xhat + beta from a batch_norm cache: the forward's own last
    step, so a backward that rebuilds the norm output gets its bits."""
    y = np.multiply(s.gamma[None, :, None, None], cache[0], out=out)
    y += s.beta[None, :, None, None]
    return y


def batch_norm_hard_swish_backward(cache: tuple, s: NormState, gy: Tensor) -> Tensor:
    """VJP of hard_swish at a batch norm's output, written into ``gy``,
    which the caller gives up.  The output is rebuilt from the norm's cache
    with ``batch_norm_output``'s bits a channel chunk at a time, into
    scratch of at most ``CHUNK_ELEMENTS`` elements (or one channel), as
    hard_swish's own, so no array of the output's size is made."""
    xhat = cache[0]
    for xc, cs, (pre,) in _hswish_chunks(xhat, xhat.dtype):
        np.multiply(s.gamma[None, cs, None, None], xc, out=pre)
        pre += s.beta[None, cs, None, None]
        hard_swish_backward(Tensor(pre), Tensor(gy.data[:, cs]))
    return gy


def batch_norm_backward(
    cache: tuple, s: NormState, gy: Tensor
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """VJP of batch_norm: returns (grad_x, grad_gamma, grad_beta).

    Train mode differentiates through the batch statistics themselves.
    """
    xhat, inv_std, train = cache
    g = gy.data
    axes = (0, 2, 3)
    gx = g * xhat
    dgamma = gx.sum(axis=axes)
    dbeta = g.sum(axis=axes)
    scale = (s.gamma * inv_std)[None, :, None, None]
    if train:
        # gamma * inv_std * (g - mean(g) - xhat * mean(g * xhat))
        m = g.size // g.shape[1]
        np.multiply(xhat, (dgamma / m)[None, :, None, None], out=gx)
        gx += (dbeta / m)[None, :, None, None]
        np.subtract(g, gx, out=gx)
        gx *= scale
    else:
        np.multiply(g, scale, out=gx)
    return Tensor(gx), dgamma, dbeta


# ---------------------------------------------------------------------------
# pooling / dense
# ---------------------------------------------------------------------------

def global_avg_pool(x: Tensor) -> Tensor:
    return Tensor(x.data.mean(axis=(2, 3), keepdims=True))


def global_avg_pool_backward(in_shape, gy: Tensor) -> Tensor:
    n, c, h, w = in_shape
    # a copy, so the gradient is writable even at 1x1, where a contiguous
    # broadcast would be returned as the read-only view itself
    return Tensor(np.array(np.broadcast_to(gy.data / (h * w), (n, c, h, w))))


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map on flat features; ``weights`` is (out_features, in_features)."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ConfigurationError(
            f"dense shape mismatch: x {x.shape} vs weights {weights.shape}"
        )
    y = x @ weights.T
    y = y + bias[None, :]
    return y


def dense_backward(
    x: np.ndarray, weights: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gx = gy @ weights
    gw = gy.T @ x
    gb = gy.sum(axis=0)
    return gx, gw, gb


def dense_macs(in_features: int, out_features: int, batch: int = 1) -> int:
    return batch * in_features * out_features
