"""Kernel-level oracles: loop-based convolution, scalar bilinear resampling,
exact rearrangement examples, and closed-form values for the pointwise ops."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfuse import kernels as K
from revfuse.tensor import Tensor

from helpers import heap_peak, rel_diff


def _conv_oracle(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                 groups: int) -> np.ndarray:
    """Direct-sum convolution oracle, plain loops, no vectorization."""
    n, in_c, h, wid = x.shape
    out_c, in_per_group, kh, kw = w.shape
    assert in_c == in_per_group * groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, out_c, oh, ow), dtype=x.dtype)
    out_per_group = out_c // groups
    for bi, o, y, xo in itertools.product(range(n), range(out_c), range(oh), range(ow)):
        g = o // out_per_group
        acc = 0.0
        for i_rel, ky, kx in itertools.product(range(in_per_group), range(kh), range(kw)):
            i = g * in_per_group + i_rel
            acc += w[o, i_rel, ky, kx] * xp[bi, i, y * stride + ky, xo * stride + kx]
        out[bi, o, y, xo] = acc
    return out


CONV_GEOMETRIES = pytest.mark.parametrize("stride,padding,groups,in_c,out_c,kernel", [
    (1, 0, 1, 3, 2, 1),     # pointwise
    (1, 1, 4, 4, 4, 3),     # depthwise
    (2, 2, 4, 4, 4, 5),     # depthwise downsample by 2 (ResampleSpec gap 1)
    (4, 4, 4, 4, 4, 9),     # depthwise downsample by 4 (gap 2)
    (8, 8, 4, 4, 4, 17),    # depthwise downsample by 8 (gap 3)
])


def _conv_case(stride, padding, groups, in_c, out_c, kernel):
    # inputs span at least four strides, so every geometry has several outputs
    rng = np.random.default_rng(0)
    size = max(8, 4 * stride)
    x = rng.standard_normal((2, in_c, size, size))
    w = rng.standard_normal((out_c, in_c // groups, kernel, kernel))
    return x, K.ConvParams(weights=w, stride=stride, padding=padding, groups=groups)


@CONV_GEOMETRIES
def test_conv2d_matches_loop_oracle(stride, padding, groups, in_c, out_c, kernel):
    x, p = _conv_case(stride, padding, groups, in_c, out_c, kernel)
    got = K.conv2d(Tensor(x), p).data
    want = _conv_oracle(x, p.weights, stride, padding, groups)
    assert got.shape == want.shape
    assert rel_diff(got, want) < 1e-13


def _adjoint_gap(y: np.ndarray, gy: np.ndarray, rhs: float) -> float:
    """|<y, gy> - rhs| relative to sum |y * gy|, the rounding scale of <y, gy>."""
    return abs(np.vdot(y, gy) - rhs) / np.vdot(np.abs(y), np.abs(gy))


@CONV_GEOMETRIES
def test_conv2d_backward_is_adjoint(stride, padding, groups, in_c, out_c, kernel):
    # conv is linear in x and in w separately:
    # <conv(x), gy> == <x, gx> == <w, gw>
    x, p = _conv_case(stride, padding, groups, in_c, out_c, kernel)
    y = K.conv2d(Tensor(x), p).data
    gy = np.random.default_rng(1).standard_normal(y.shape)
    gx, gw = K.conv2d_backward(Tensor(x), p, Tensor(gy))
    assert _adjoint_gap(y, gy, np.vdot(x, gx.data)) < 1e-12
    assert _adjoint_gap(y, gy, np.vdot(p.weights, gw)) < 1e-12


DW_EDGE_GEOMETRIES = pytest.mark.parametrize("shape,kernel,stride,padding", [
    ((2, 3, 9, 7), 3, 1, 1),      # non-square
    ((2, 3, 9, 7), 5, 2, 2),      # non-square, h % s != 0
    ((1, 2, 10, 6), 9, 4, 4),     # h % s != 0 and w % s != 0
    ((1, 2, 8, 9), 4, 2, 3),      # even kernel, padding > k // 2
    ((2, 2, 9, 8), 3, 3, 0),      # no padding, stride == kernel
    ((1, 2, 7, 8), 5, 3, 1),      # padding neither 0 nor a multiple of s / 2
    ((2, 2, 8, 8), 17, 8, 8),     # kernel wider than the input: one output
    ((1, 2, 5, 6), 17, 8, 8),     # input smaller than the stride
    ((2, 3, 1, 1), 3, 1, 1),      # 1x1 spatial
    ((2, 3, 1, 1), 5, 2, 2),      # 1x1 spatial, strided
    # Chunked backward.  Strided, these run in chunks of
    # K._DW_CHUNK_CHANNELS (16) channels; at stride 1 a chunk holds at most
    # 2c // 9 channels but at least 8, so both stride-1 cases run in
    # 8-channel chunks.  The last chunk is one channel wide in the first
    # four cases.  Past a ragged border a chunk reuses the phase buffer,
    # which must be zeroed again each time.
    ((2, 33, 9, 7), 3, 1, 1),     # chunked, stride 1
    ((1, 33, 9, 7), 5, 2, 2),     # chunked, h % s != 0 and w % s != 0
    ((1, 17, 10, 6), 9, 4, 4),    # chunked, stride 4, both ragged
    ((1, 17, 10, 12), 17, 8, 8),  # chunked, stride 8, both ragged
    ((2, 18, 8, 8), 5, 2, 2),     # chunked, whole stride blocks
    ((8, 16, 8, 8), 3, 1, 1),     # stride 1, split by the cap alone
])


def _dw_case(shape, kernel, stride, padding):
    rng = np.random.default_rng(11)
    c = shape[1]
    x = rng.standard_normal(shape)
    w = rng.standard_normal((c, 1, kernel, kernel))
    return x, K.ConvParams(weights=w, stride=stride, padding=padding, groups=c)


@DW_EDGE_GEOMETRIES
def test_depthwise_edge_geometry_matches_oracle_and_adjoint(shape, kernel, stride, padding):
    x, p = _dw_case(shape, kernel, stride, padding)
    y = K.conv2d(Tensor(x), p).data
    want = _conv_oracle(x, p.weights, stride, padding, shape[1])
    assert y.shape == want.shape
    assert rel_diff(y, want) < 1e-13
    gy = np.random.default_rng(12).standard_normal(y.shape)
    gx, gw = K.conv2d_backward(Tensor(x), p, Tensor(gy))
    assert gx.shape == x.shape and gw.shape == p.weights.shape
    assert _adjoint_gap(y, gy, np.vdot(x, gx.data)) < 1e-12
    assert _adjoint_gap(y, gy, np.vdot(p.weights, gw)) < 1e-12


def test_depthwise_float32_matches_float64():
    x, p = _dw_case((2, 4, 9, 7), 5, 2, 2)
    gy = np.random.default_rng(13).standard_normal((2, 4, 5, 4))
    runs = {}
    for dtype in (np.float32, np.float64):
        # both runs see the same float32-representable values
        cast = lambda a: a.astype(np.float32).astype(dtype)
        pd = K.ConvParams(weights=cast(p.weights), stride=2, padding=2, groups=4)
        y = K.conv2d(Tensor(cast(x)), pd).data
        gx, gw = K.conv2d_backward(Tensor(cast(x)), pd, Tensor(cast(gy)))
        assert y.dtype == gx.dtype == gw.dtype == dtype
        runs[dtype] = (y, gx.data, gw)
    x64, w64 = (a.astype(np.float32).astype(np.float64) for a in (x, p.weights))
    assert rel_diff(runs[np.float32][0], _conv_oracle(x64, w64, 2, 2, 4)) < 1e-6
    for lo, hi in zip(runs[np.float32], runs[np.float64]):
        assert rel_diff(lo, hi) < 1e-6


@DW_EDGE_GEOMETRIES
def test_depthwise_backward_over_its_input_gives_the_fresh_buffer_bits(
        shape, kernel, stride, padding):
    # each chunk of x is copied into its phases before that chunk's
    # gradient is written, so writing grad_x over x changes no bit
    x, p = _dw_case(shape, kernel, stride, padding)
    gy = np.random.default_rng(14).standard_normal(K.conv2d(Tensor(x), p).shape)
    gx, gw = K.conv2d_backward(Tensor(x.copy()), p, Tensor(gy))
    given_up = Tensor(x.copy())
    gx_in, gw_in = K.conv2d_backward(given_up, p, Tensor(gy), overwrite=True)
    assert np.shares_memory(gx_in.data, given_up.data)
    assert gx_in.data.tobytes() == gx.data.tobytes()
    assert gw_in.tobytes() == gw.tobytes()


def _pointwise_case(n, dtype, out_c, in_c, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, in_c, h, w)).astype(dtype)
    gy = rng.standard_normal((n, out_c, h, w)).astype(dtype)
    p = K.ConvParams(rng.standard_normal((out_c, in_c, 1, 1)).astype(dtype))
    return Tensor(x), p, Tensor(gy)


# The 1x1 convs past CHUNK_ELEMENTS / 2 weight elements that the bench
# builds, as (out, in, h, w): all at S0 widths, 128 px, float32.  The
# head's final conv and up32's expand conv (the first and last) span
# several row blocks.
S0_POINTWISE_GEOMETRIES = [
    (1280, 320, 4, 4),      # head final
    (160, 256, 4, 4),       # down13 project
    (160, 320, 4, 4),       # down23 project
    (320, 128, 4, 4),       # head down2 project
    (320, 160, 4, 4),       # up31 expand, head neck3 project
    (80, 480, 4, 4),        # up32 project
    (480, 160, 4, 4),       # up32 expand
]


@pytest.mark.parametrize("n,dtype,geometry", [
    *(pytest.param(n, dtype, (out_c, 24, 5, 7), id=f"{out_c}-{np.dtype(dtype)}-{n}")
      for out_c in (40, 1000, 3000) for dtype in (np.float32, np.float64)
      for n in (2, 8, 16, 33)),
    *(pytest.param(n, np.float32, g, id=f"{g[0]}x{g[1]}-float32-{n}")
      for g in S0_POINTWISE_GEOMETRIES for n in (1, 2, 8)),
])
def test_pointwise_weight_gradient_is_the_batched_sum_bit_for_bit(n, dtype, geometry):
    # gy·xᵀ summed in sample order has the bits of the batched product
    # summed over axis 0, whether a group of samples is summed at a time
    # (all of them at 40 output channels, 2 at 1000) or each later sample
    # is added in row blocks (3000 outputs: two blocks; the S0 convs)
    out_c, in_c, h, w = geometry
    x, p, gy = _pointwise_case(n, dtype, out_c, in_c, h, w, seed=15)
    _, gw = K.conv2d_backward(x, p, gy)
    terms = np.matmul(gy.data.reshape(n, out_c, h * w),
                      x.data.reshape(n, in_c, h * w).swapaxes(-1, -2))
    assert gw.tobytes() == terms.sum(axis=0).reshape(p.weights.shape).tobytes()


def test_pointwise_weight_gradient_holds_no_batch_of_terms():
    # the batched product held n weight-sized terms before its sum; past
    # CHUNK_ELEMENTS / 2 weight elements, sample 0's term is the gradient
    # and each later one is added a row block at a time, so the VJP holds
    # its two gradients and one row block (a weight, for a single block)
    for n, (out_c, in_c, h, w) in (
            (8, (256, 256, 2, 2)),      # CHUNK_ELEMENTS elements: one block
            (1, (1280, 320, 4, 4)),     # S0's head final conv: seven blocks
            (2, (1280, 320, 4, 4))):
        x, p, gy = _pointwise_case(n, np.float32, out_c, in_c, h, w, seed=16)
        rows = min(out_c, max(64, K.CHUNK_ELEMENTS // in_c))
        block = rows * in_c * x.dtype.itemsize
        _, peak = heap_peak(lambda: K.conv2d_backward(x, p, gy))
        assert peak <= x.nbytes + p.weights.nbytes + block + 4096, (n, out_c, peak)


def test_conv2d_identity_impulse():
    # depthwise 3x3 with a centered impulse reproduces the input exactly
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 6, 6))
    w = np.zeros((3, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    p = K.ConvParams(weights=w, stride=1, padding=1, groups=3)
    y = K.conv2d(Tensor(x), p).data
    assert np.array_equal(y, x)


def _literal_multiply_count(out_c, oh, ow, in_per_group, kh, kw) -> int:
    count = 0
    for _o, _y, _x in itertools.product(range(out_c), range(oh), range(ow)):
        for _i, _ky, _kx in itertools.product(range(in_per_group), range(kh), range(kw)):
            count += 1
    return count


def test_conv2d_macs_equals_literal_multiply_count():
    # (1,3,8,8) -> (1,4,8,8) with 1x1: 4*8*8 outputs x 3 multiplies = 768
    p = K.ConvParams(weights=np.zeros((4, 3, 1, 1)))
    assert _literal_multiply_count(4, 8, 8, 3, 1, 1) == 768
    assert K.conv2d_macs((1, 3, 8, 8), p) == 768
    # depthwise 3x3, padding 1: 3*8*8 outputs x 1*3*3 multiplies = 1728
    p = K.ConvParams(weights=np.zeros((3, 1, 3, 3)), stride=1, padding=1, groups=3)
    assert _literal_multiply_count(3, 8, 8, 1, 3, 3) == 1728
    assert K.conv2d_macs((1, 3, 8, 8), p) == 1728


def test_conv2d_rejects_geometry_neither_pointwise_nor_depthwise():
    # only 1x1 (stride 1, padding 0, groups 1) and depthwise convs run; the
    # params of any other geometry are refused when they are made, and the
    # error names the geometry
    from revfuse.errors import ConfigurationError
    for stride, padding, groups, in_c, out_c, kernel in [
        (1, 1, 1, 3, 4, 3),     # plain 3x3
        (2, 0, 1, 3, 2, 1),     # strided 1x1
        (1, 0, 3, 3, 6, 1),     # grouped 1x1
    ]:
        named = re.escape(f"kernel {(kernel, kernel)} stride {stride} "
                          f"padding {padding} groups {groups}")
        w = np.zeros((out_c, in_c // groups, kernel, kernel))
        with pytest.raises(ConfigurationError, match=named):
            K.ConvParams(weights=w, stride=stride, padding=padding, groups=groups)


def test_conv_out_size_rejects_empty_output():
    from revfuse.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        K.conv_out_size(2, 5, 1, 0)


def _bilinear_oracle(x: np.ndarray, factor: int) -> np.ndarray:
    """Scalar half-pixel-centered, border-clamped bilinear interpolation."""
    n, c, h, w = x.shape
    oh, ow = h * factor, w * factor
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)

    def axis(i, size):
        src = min(max((i + 0.5) / factor - 0.5, 0.0), size - 1.0)
        lo = int(np.floor(src))
        hi = min(lo + 1, size - 1)
        return lo, hi, src - lo

    for bi, ci, oy, ox in itertools.product(range(n), range(c), range(oh), range(ow)):
        y0, y1, ty = axis(oy, h)
        x0, x1, tx = axis(ox, w)
        top = (1 - tx) * x[bi, ci, y0, x0] + tx * x[bi, ci, y0, x1]
        bot = (1 - tx) * x[bi, ci, y1, x0] + tx * x[bi, ci, y1, x1]
        out[bi, ci, oy, ox] = (1 - ty) * top + ty * bot
    return out


@pytest.mark.parametrize("shape,factor", [
    ((1, 1, 2, 2), 2),      # all 16 output positions against the oracle
    ((1, 1, 1, 1), 4),      # pure border clamping: constant output
    ((2, 3, 4, 5), 2),
    ((1, 2, 3, 3), 4),
])
def test_bilinear_upsample_matches_scalar_oracle(shape, factor):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(shape)
    got = K.bilinear_upsample(Tensor(x), factor).data
    want = _bilinear_oracle(x, factor)
    assert got.shape == want.shape
    assert rel_diff(got, want) < 1e-14


def test_bilinear_upsample_single_pixel_is_constant():
    x = np.full((1, 1, 1, 1), 3.25)
    y = K.bilinear_upsample(Tensor(x), 8).data
    assert y.shape == (1, 1, 8, 8)
    assert np.all(y == 3.25)


def test_bilinear_backward_is_transpose_of_forward():
    # <up(x), g> == <x, up^T(g)> for random x, g
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4, 4))
    g = rng.standard_normal((2, 3, 8, 8))
    y = K.bilinear_upsample(Tensor(x), 2).data
    gx = K.bilinear_upsample_backward(x.shape, 2, Tensor(g)).data
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) < 1e-10


@pytest.mark.parametrize("shape,factor", [
    ((2, 3, 3, 5), 2),
    ((1, 2, 5, 2), 4),
    ((2, 1, 4, 7), 8),
])
def test_bilinear_backward_is_adjoint_non_square(shape, factor):
    # the forward gathers and the backward multiplies matrices; this pins them
    rng = np.random.default_rng(10)
    x = rng.standard_normal(shape)
    y = K.bilinear_upsample(Tensor(x), factor).data
    g = rng.standard_normal(y.shape)
    gx = K.bilinear_upsample_backward(x.shape, factor, Tensor(g)).data
    assert gx.shape == x.shape
    assert _adjoint_gap(y, g, np.vdot(x, gx)) < 1e-12


def test_space_to_depth_channel_order():
    # one channel, 2x2 [[a,b],[c,d]] -> four 1x1 channels ordered a, b, c, d
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    y = K.space_to_depth(Tensor(x), 2).data
    assert y.shape == (1, 4, 1, 1)
    assert y.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2), c=st.integers(1, 3),
    tiles=st.integers(1, 3), block=st.sampled_from([2, 4]),
)
def test_space_depth_round_trip(n, c, tiles, block):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, c, tiles * block, tiles * block))
    t = K.space_to_depth(Tensor(x), block)
    assert t.shape == (n, c * block * block, tiles, tiles)
    back = K.depth_to_space(t, block).data
    assert np.array_equal(back, x)


def test_elementwise_add_sub_cancel():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((2, 3, 4, 4)))
    b = Tensor(rng.standard_normal((2, 3, 4, 4)))
    assert np.array_equal(K.sub(K.add(a, b), b).data + 0.0,
                          (a.data + b.data) - b.data)


def test_hard_swish_closed_form_values():
    x = np.array([[[[-4.0, -3.0, -1.0, 0.0, 1.0, 3.0, 4.0, 6.0]]]])
    y = K.hard_swish(Tensor(x.copy())).data.reshape(-1)
    want = [0.0, 0.0, -1.0 / 3.0, 0.0, 2.0 / 3.0, 3.0, 4.0, 6.0]
    assert np.allclose(y, want, rtol=0, atol=1e-15)


def test_sigmoid_matches_reference_and_saturates():
    x = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    y = K.sigmoid(x)
    ref = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
    assert np.allclose(y, ref, rtol=0, atol=1e-15)
    assert y[0] == 0.0 and y[-1] == 1.0      # no overflow at the extremes
    assert y[2] == 0.5


def test_relu_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert K.relu(x).tolist() == [0.0, 0.0, 3.0]


def test_batch_norm_train_moments():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 3, 16, 16)) * 2.5 + 1.0
    s = K.NormState.create(3, np.float64)
    s.gamma[:] = np.array([1.0, 2.0, 0.5])
    s.beta[:] = np.array([0.0, -1.0, 3.0])
    y, _ = K.batch_norm(Tensor(x), s, train=True)
    for c in range(3):
        yc = y.data[:, c]
        xc = x[:, c]
        var = xc.var()                      # biased batch variance
        assert abs(yc.mean() - s.beta[c]) < 1e-12
        want_var = s.gamma[c] ** 2 * var / (var + s.epsilon)
        assert abs(yc.var() - want_var) < 1e-10


def test_batch_norm_running_stats_one_step():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 2, 8, 8)) * 3.0 - 0.5
    s = K.NormState.create(2, np.float64)    # running mean 0, var 1
    K.batch_norm(Tensor(x), s, train=True)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    assert np.allclose(s.running_mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-12)
    assert np.allclose(s.running_var, 0.9 * 1.0 + 0.1 * var, atol=1e-12)


def test_batch_norm_replay_without_fold_leaves_running_averages():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 2, 8, 8)))
    s = K.NormState.create(2, np.float64)
    y1, _ = K.batch_norm(x, s, train=True)
    mean_after, var_after = s.running_mean.copy(), s.running_var.copy()
    y2, _ = K.batch_norm(x, s, train=True, fold=False)    # a replay: no update
    assert np.array_equal(s.running_mean, mean_after)
    assert np.array_equal(s.running_var, var_after)
    assert np.array_equal(y1.data, y2.data)
    K.batch_norm(x, s, train=True)                        # a new forward: update
    assert not np.array_equal(s.running_mean, mean_after)


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2, 8, 8))
    s = K.NormState.create(2, np.float64)
    s.running_mean[:] = np.array([1.0, -2.0])
    s.running_var[:] = np.array([4.0, 0.25])
    y, _ = K.batch_norm(Tensor(x), s, train=False)
    want = (x - s.running_mean[:, None, None]) / np.sqrt(
        s.running_var[:, None, None] + s.epsilon)
    assert rel_diff(y.data, want) < 1e-14
    assert np.array_equal(s.running_mean, np.array([1.0, -2.0]))  # untouched


def test_global_avg_pool_constant_input():
    x = Tensor(np.full((2, 3, 5, 5), 1.5))
    y = K.global_avg_pool(x)
    assert y.shape == (2, 3, 1, 1)
    assert np.all(y.data == 1.5)


def test_dense_one_hot_selects_columns():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    w = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])   # picks features 2, 0
    b = np.array([10.0, 20.0])
    y = K.dense(x, w, b)
    assert y.tolist() == [[13.0, 21.0], [16.0, 24.0]]
    assert K.dense_macs(3, 2, batch=2) == 12


def test_dense_macs_single_sample():
    assert K.dense_macs(128, 10) == 1280


# -- forward bit identity ------------------------------------------------------
#
# Inversion replays forward kernels, and float32 reconstruction drift sits
# near the verify-inverse tolerance, so a forward kernel's bits are pinned:
# each is compared, byte for byte, with the one-line formula it replaced.

BOTH_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _bn_reference(d, s, train):
    if train:
        mean, var = d.mean(axis=(0, 2, 3)), d.var(axis=(0, 2, 3))
    else:
        mean, var = s.running_mean, s.running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(s.epsilon, dtype=d.dtype))
    xhat = (d - mean[None, :, None, None]) * inv_std[None, :, None, None]
    return s.gamma[None, :, None, None] * xhat + s.beta[None, :, None, None], xhat, mean, var


@BOTH_DTYPES
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(2, 5, 7, 9), (3, 4, 1, 1), (1, 3, 16, 16)])
def test_batch_norm_forward_is_bit_identical_to_reference(dtype, train, shape):
    rng = np.random.default_rng(20)
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    c = shape[1]
    s = K.NormState.create(c, dtype)
    s.gamma[:] = rng.standard_normal(c)
    s.beta[:] = rng.standard_normal(c)
    s.running_mean[:] = rng.standard_normal(c)
    s.running_var[:] = rng.uniform(0.5, 2.0, c)
    rm0, rv0 = s.running_mean.copy(), s.running_var.copy()
    y_ref, xhat_ref, mean, var = _bn_reference(x, s, train)
    y, (xhat, _, _) = K.batch_norm(Tensor(x), s, train=train)
    assert y.dtype == dtype
    assert y.data.tobytes() == y_ref.tobytes()
    assert xhat.tobytes() == xhat_ref.tobytes()
    if train:   # the running averages fold in the same batch statistics
        m = s.momentum
        assert s.running_mean.tobytes() == (m * rm0 + (1.0 - m) * mean).tobytes()
        assert s.running_var.tobytes() == (m * rv0 + (1.0 - m) * var).tobytes()


@BOTH_DTYPES
def test_hard_swish_forward_is_bit_identical_to_reference(dtype):
    rng = np.random.default_rng(21)
    x = (rng.standard_normal((2, 3, 8, 8)) * 3.0).astype(dtype)
    x.flat[:6] = [-3.0, 3.0, -3.5, 3.5, -1.5, 0.0]
    ref = x * np.clip(x + 3.0, 0.0, 6.0) / 6.0
    y = K.hard_swish(Tensor(x.copy())).data
    assert y.dtype == dtype and y.tobytes() == ref.tobytes()


def _bilinear_reference(x, factor):
    iy0, iy1, fy = K._bilinear_axis(x.shape[2], factor)
    ix0, ix1, fx = K._bilinear_axis(x.shape[3], factor)
    fy = fy.astype(x.dtype)[:, None]
    fx = fx.astype(x.dtype)[None, :]
    top = (1 - fx) * x[:, :, iy0[:, None], ix0[None, :]] + fx * x[:, :, iy0[:, None], ix1[None, :]]
    bot = (1 - fx) * x[:, :, iy1[:, None], ix0[None, :]] + fx * x[:, :, iy1[:, None], ix1[None, :]]
    return (1 - fy) * top + fy * bot


@BOTH_DTYPES
@pytest.mark.parametrize("factor", [2, 4, 8])
@pytest.mark.parametrize("shape", [(2, 3, 3, 5), (1, 2, 6, 4), (2, 2, 1, 1)])
def test_bilinear_forward_is_bit_identical_to_reference(dtype, factor, shape):
    x = np.random.default_rng(22).standard_normal(shape).astype(dtype)
    y = K.bilinear_upsample(Tensor(x), factor).data
    ref = _bilinear_reference(x, factor)
    assert y.dtype == dtype and y.tobytes() == ref.tobytes()


def _dw_stride1_reference(x, w, pad):
    """Stride-1 depthwise conv as one (c,1,1) @ (c,1,N) matmul per kernel tap,
    each added into its clipped output window in row-major tap order."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    oh, ow = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    cols = x.transpose(1, 0, 2, 3).reshape(c, 1, -1)
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ky, kx in itertools.product(range(kh), range(kw)):
        z = (w[:, :, ky, kx][:, :, None] @ cols).reshape(c, n, h, wd).transpose(1, 0, 2, 3)
        dy, dx = ky - pad, kx - pad
        y0, y1 = max(0, -dy), min(oh, h - dy)
        x0, x1 = max(0, -dx), min(ow, wd - dx)
        if y0 < y1 and x0 < x1:
            out[:, :, y0:y1, x0:x1] += z[:, :, y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    return out


@BOTH_DTYPES
@pytest.mark.parametrize("shape,kernel,padding", [
    ((2, 5, 9, 7), 3, 1),
    ((1, 4, 8, 8), 5, 2),
    ((2, 3, 6, 5), 3, 0),
    ((2, 3, 1, 1), 3, 1),
])
def test_depthwise_stride1_forward_is_bit_identical_to_matmul(dtype, shape, kernel, padding):
    rng = np.random.default_rng(23)
    c = shape[1]
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((c, 1, kernel, kernel)).astype(dtype)
    p = K.ConvParams(weights=w, stride=1, padding=padding, groups=c)
    y = K.conv2d(Tensor(x), p).data
    ref = _dw_stride1_reference(x, w, padding)
    assert y.dtype == dtype and y.tobytes() == ref.tobytes()


# The whole-layer depthwise kernels these replaced: phase weights for
# every block offset at once, and weight-gradient blocks for every channel,
# turned into taps at the end.  Each block offset's and each channel's BLAS
# call has the same operands and shapes as in the chunked kernels, so every
# output and gradient is byte-equal.

class _WholeLayerPolyphase:
    def __init__(self, x, p, oh, ow):
        n, c, h, w = x.shape
        s = self.s = p.stride
        self.hq, self.wq = hq, wq = -(-h // s), -(-w // s)
        first = -p.padding // s
        self.dy_n, self.dx_n = ((k - 1 - p.padding) // s - first + 1 for k in p.kernel)
        self.offsets = []
        for k in range(self.dy_n * self.dx_n):
            dy, dx = first + k // self.dx_n, first + k % self.dx_n
            y0, y1 = max(0, -dy), min(oh, hq - dy)
            x0, x1 = max(0, -dx), min(ow, wq - dx)
            if y0 < y1 and x0 < x1:
                self.offsets.append((k, np.s_[..., y0:y1, x0:x1],
                                     np.s_[..., y0 + dy : y1 + dy, x0 + dx : x1 + dx]))
        self.p, self.x = p, x
        self.o = (-p.padding) % s

    def phases(self):
        n, c, h, w = self.x.shape
        s = self.s
        alloc = np.empty if h % s == 0 and w % s == 0 else np.zeros
        ph = alloc((c, s * s, n * self.hq * self.wq), dtype=self.x.dtype)
        for a, g in K._phase_views(self.x, ph, s, self.hq, self.wq):
            g[...] = a
        return ph

    def weights(self):
        """(c, D*D, s*s): row dy*D + dx is block (dy, dx), whose entry
        ry*s + rx is tap (s*dy + ry + pad, s*dx + rx + pad), zero past the
        kernel."""
        (c, _, kh, kw), s, o = self.p.weights.shape, self.s, self.o
        wp = np.zeros((c, self.dy_n, s, self.dx_n, s), dtype=self.p.weights.dtype)
        wp.reshape(c, self.dy_n * s, self.dx_n * s)[:, o : o + kh, o : o + kw] = self.p.weights[:, 0]
        return wp.transpose(0, 1, 3, 2, 4).reshape(c, -1, s * s)

    def tap_grads(self, gblk):
        """Inverse of weights() for gradients: (c, s*s, D*D) -> (c, 1, kh, kw)."""
        (c, _, kh, kw), s, o = self.p.weights.shape, self.s, self.o
        g = gblk.reshape(c, s, s, self.dy_n, self.dx_n).transpose(0, 3, 1, 4, 2)
        return g.reshape(c, 1, self.dy_n * s, self.dx_n * s)[..., o : o + kh, o : o + kw].copy()


def _dwconv_whole_layer(x, p, oh, ow):
    pp = _WholeLayerPolyphase(x, p, oh, ow)
    n, c = x.shape[:2]
    wb, ph = pp.weights(), pp.phases()
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    z = np.empty((c, 1, ph.shape[2]), dtype=x.dtype)
    zv = z.reshape(c, n, pp.hq, pp.wq).transpose(1, 0, 2, 3)
    product = np.multiply if pp.s == 1 else np.matmul
    for k, out_win, ph_win in pp.offsets:
        product(wb[:, k : k + 1], ph, out=z)
        out[out_win] += zv[ph_win]
    return out


def _dwconv_backward_whole_layer(x, p, gy, overwrite=False):
    pp = _WholeLayerPolyphase(x, p, gy.shape[2], gy.shape[3])
    n, c, h, w = x.shape
    s, wb = pp.s, pp.weights()
    d2, s2 = wb.shape[1:]
    step = min(c, max(K._DW_CHUNK_CHANNELS, c * s2 // (4 * (d2 + s2))))
    gblk = np.empty((c, s2, d2), dtype=gy.dtype)
    gx = x if overwrite else np.empty_like(x)
    stack = np.zeros((step, d2, n * pp.hq * pp.wq), dtype=gy.dtype)
    phases = np.empty((step, s2, stack.shape[2]), dtype=x.dtype)
    sv = stack.reshape(step, d2, n, pp.hq, pp.wq)
    gyc = gy.transpose(1, 0, 2, 3)
    shifts = [(sv[:, k][ph_win], gyc[out_win]) for k, out_win, ph_win in pp.offsets]
    x_views = list(K._phase_views(x, phases, s, pp.hq, pp.wq))
    gx_views = list(K._phase_views(gx, phases, s, pp.hq, pp.wq))
    for c0 in range(0, c, step):
        c1 = min(c, c0 + step)
        nc = c1 - c0
        for dst, src in shifts:
            dst[:nc] = src[c0:c1]
        if h % s or w % s:
            phases.fill(0)
        for a, g in x_views:
            g[:nc] = a[c0:c1]
        ph, st = phases[:nc], stack[:nc]
        np.matmul(ph, st.transpose(0, 2, 1), out=gblk[c0:c1])
        np.matmul(wb[c0:c1].transpose(0, 2, 1), st, out=ph)
        for a, g in gx_views:
            a[c0:c1] = g[:nc]
    return gx, pp.tap_grads(gblk)


@BOTH_DTYPES
@DW_EDGE_GEOMETRIES
def test_depthwise_kernels_are_bit_identical_to_the_whole_layer_reference(
        dtype, shape, kernel, stride, padding):
    x, p = _dw_case(shape, kernel, stride, padding)
    x = x.astype(dtype)
    p = K.ConvParams(weights=p.weights.astype(dtype), stride=stride, padding=padding,
                     groups=shape[1])
    y = K.conv2d(Tensor(x), p).data
    oh, ow = y.shape[2:]
    assert y.dtype == dtype
    assert y.tobytes() == _dwconv_whole_layer(x, p, oh, ow).tobytes()
    gy = np.random.default_rng(17).standard_normal(y.shape).astype(dtype)
    gx_ref, gw_ref = _dwconv_backward_whole_layer(x, p, gy)
    gx, gw = K.conv2d_backward(Tensor(x.copy()), p, Tensor(gy))
    gx_in, gw_in = K.conv2d_backward(Tensor(x.copy()), p, Tensor(gy), overwrite=True)
    for g, ref in ((gx.data, gx_ref), (gw, gw_ref), (gx_in.data, gx_ref), (gw_in, gw_ref)):
        assert g.dtype == dtype and g.shape == ref.shape
        assert g.tobytes() == ref.tobytes()


# The depthwise sites that set the bench's heap peaks: a 17x17, stride-8
# downsample at the toy model's and at S0's 128 px widths.
DW_HEAP_SITES = pytest.mark.parametrize("shape,dtype", [
    ((8, 64, 16, 16), np.float64),
    ((2, 192, 32, 32), np.float32),
])
_SLACK = 4096   # array headers and views


def _dw_heap_case(shape, dtype):
    rng = np.random.default_rng(18)
    c = shape[1]
    x = rng.standard_normal(shape).astype(dtype)
    p = K.ConvParams(rng.standard_normal((c, 1, 17, 17)).astype(dtype),
                     stride=8, padding=8, groups=c)
    y = K.conv2d(Tensor(x), p)      # works out and caches the geometry
    gy = rng.standard_normal(y.shape).astype(dtype)
    return x, p, y, gy


@DW_HEAP_SITES
def test_depthwise_backward_scratch_is_one_channel_chunk(shape, dtype):
    # grad_x and grad_w, plus one chunk's stack, phases, phase weights and
    # weight-gradient blocks; the chunk is the widest within a quarter of
    # the input, but at least 16 channels
    x, p, _, gy = _dw_heap_case(shape, dtype)
    n, c, h, w = shape
    d2, s2, m = 9, 64, n * (h // 8) * (w // 8)
    per_channel = (d2 + s2) * m + 2 * d2 * s2
    step = min(c, max(16, c * s2 * m // (4 * per_channel)))
    _, peak = heap_peak(lambda: K._dwconv_backward(x, p, gy))
    chunk = step * per_channel * x.itemsize
    assert peak <= x.nbytes + p.weights.nbytes + chunk + _SLACK, (peak, chunk)


@pytest.mark.parametrize("shape,dtype", [
    ((8, 16, 8, 8), np.float64),    # the toy model's head neck0
    ((2, 48, 32, 32), np.float32),  # S0's head neck0 at 128 px
])
def test_depthwise_stride1_backward_stack_is_capped_by_its_input(shape, dtype):
    # a stride-1 chunk stacks its output gradient at the 3x3 block offsets,
    # so a chunk of 2c // 9 channels stacks at most twice the input (10
    # channels at 48); no chunk is below 8 channels, so a 16-channel layer
    # stacks 4.5 inputs.  A 16-channel chunk, the strided floor, would
    # stack 9 inputs at 16 channels and 3 at 48.
    rng = np.random.default_rng(19)
    n, c, h, w = shape
    x = rng.standard_normal(shape).astype(dtype)
    p = K.ConvParams(rng.standard_normal((c, 1, 3, 3)).astype(dtype),
                     stride=1, padding=1, groups=c)
    gy = rng.standard_normal(shape).astype(dtype)
    K.conv2d(Tensor(x), p)          # works out and caches the geometry
    m, step = n * h * w, max(8, 2 * c // 9)
    # stack, phases, phase weights, weight-gradient blocks
    buffers = lambda channels: channels * (10 * m + 18) * x.itemsize
    _, peak = heap_peak(lambda: K._dwconv_backward(x, p, gy))
    assert peak <= x.nbytes + p.weights.nbytes + buffers(step) + _SLACK, peak
    assert buffers(step) + _SLACK < buffers(16)


@DW_HEAP_SITES
def test_depthwise_forward_builds_one_block_of_phase_weights_at_a_time(shape, dtype):
    # the output, the phases, one block offset's product and (c, 1, 8*8)
    # phase weights, and the buffers numpy may give each of the three
    # operands of the in-place add into an output window; the whole
    # (c, 3*3, 8*8) phase weights, let alone two copies of them, do not fit
    x, p, y, _ = _dw_heap_case(shape, dtype)
    n, c, h, w = shape
    m = n * (h // 8) * (w // 8)
    phases, product, block = (c * 64 * m, c * m, c * 64)
    _, peak = heap_peak(lambda: K.conv2d(Tensor(x), p))
    bound = (phases + product + block) * x.itemsize + 4 * y.nbytes + _SLACK
    assert bound < (phases + product + 9 * block) * x.itemsize + y.nbytes
    assert peak <= bound, peak
