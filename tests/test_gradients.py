"""Finite-difference audit of every differentiable kernel's backward.

Each check builds a scalar loss sum(output * R) for a fixed random R, takes
the analytic gradient from the kernel's backward function, and compares 100
randomly sampled elements against central finite differences (double
precision, step 1e-5, sample points kept away from activation kinks).
Errors are measured relative to the gradient scale of the probed tensor.
"""

from __future__ import annotations

import numpy as np
import pytest

from revfuse import kernels as K
from revfuse.layers import MBConv, SqueezeExcite
from revfuse.tensor import Tensor

from helpers import central_fd

STEP = 1e-5
TOL = 1e-6
POINTS = 100


def _probe(loss_fn, arr: np.ndarray, grad: np.ndarray, rng, points=POINTS,
           tol=TOL) -> None:
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    scale = max(float(np.max(np.abs(grad))), 1e-12)
    idxs = rng.choice(flat.size, size=min(points, flat.size), replace=False)
    worst = 0.0
    for idx in idxs:
        fd = central_fd(loss_fn, flat, int(idx), STEP)
        worst = max(worst, abs(fd - gflat[idx]) / scale)
    assert worst <= tol, f"worst relative FD error {worst:.3e} > {tol:g}"


def test_conv2d_backward_fd():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 1, 1)) * 0.5
    r = rng.standard_normal((2, 4, 6, 6))

    def loss():
        p = K.ConvParams(weights=w, stride=1, padding=0, groups=1)
        return float(np.vdot(K.conv2d(Tensor(x), p).data, r)) / 10.0

    p = K.ConvParams(weights=w, stride=1, padding=0, groups=1)
    gx, gw = K.conv2d_backward(Tensor(x), p, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)
    _probe(loss, w, gw, rng)


def test_conv2d_backward_fd_depthwise_strided():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 4, 8, 8))
    w = rng.standard_normal((4, 1, 5, 5)) * 0.3
    r = rng.standard_normal((2, 4, 4, 4))

    def loss():
        p = K.ConvParams(weights=w, stride=2, padding=2, groups=4)
        return float(np.vdot(K.conv2d(Tensor(x), p).data, r)) / 10.0

    p = K.ConvParams(weights=w, stride=2, padding=2, groups=4)
    gx, gw = K.conv2d_backward(Tensor(x), p, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)
    _probe(loss, w, gw, rng)


def test_bilinear_upsample_backward_fd():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal((2, 3, 8, 8))

    def loss():
        return float(np.vdot(K.bilinear_upsample(Tensor(x), 2).data, r)) / 10.0

    gx = K.bilinear_upsample_backward(x.shape, 2, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)


def test_batch_norm_backward_fd_through_batch_stats():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 3, 6, 6)) * 1.7 + 0.3
    gamma = 1.0 + 0.2 * rng.standard_normal(3)
    beta = 0.1 * rng.standard_normal(3)
    r = rng.standard_normal((4, 3, 6, 6))

    def make_state():
        s = K.NormState.create(3, np.float64)
        s.gamma[:] = gamma
        s.beta[:] = beta
        return s

    def loss():
        y, _ = K.batch_norm(Tensor(x), make_state(), train=True)
        return float(np.vdot(y.data, r)) / 10.0

    s = make_state()
    y, cache = K.batch_norm(Tensor(x), s, train=True)
    gx, ggamma, gbeta = K.batch_norm_backward(cache, s, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)
    _probe(loss, gamma, ggamma, rng)
    _probe(loss, beta, gbeta, rng)


def test_batch_norm_backward_fd_eval_mode():
    # eval mode normalizes by the running averages, which are constants
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 3, 6, 6)) * 1.7 + 0.3
    gamma = 1.0 + 0.2 * rng.standard_normal(3)
    beta = 0.1 * rng.standard_normal(3)
    r = rng.standard_normal((4, 3, 6, 6))

    def make_state():
        s = K.NormState.create(3, np.float64)
        s.gamma[:] = gamma
        s.beta[:] = beta
        s.running_mean[:] = [0.5, -0.2, 0.1]
        s.running_var[:] = [2.0, 0.7, 1.3]
        return s

    def loss():
        y, _ = K.batch_norm(Tensor(x), make_state(), train=False)
        return float(np.vdot(y.data, r)) / 10.0

    s = make_state()
    y, cache = K.batch_norm(Tensor(x), s, train=False)
    gx, ggamma, gbeta = K.batch_norm_backward(cache, s, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)
    _probe(loss, gamma, ggamma, rng)
    _probe(loss, beta, gbeta, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hard_swish_backward_exact_at_kinks_and_negative_band(dtype):
    # slope 0 at and below -3, 1 at and above 3, (2x + 3) / 6 between; the
    # band (-3, -1.5) has negative slope.  All values are exact dyadics.
    x = np.array([-3.5, -3.0, -2.625, -2.25, -1.875, 0.0, 1.5, 3.0, 4.0],
                 dtype=dtype).reshape(1, 1, 1, -1)
    slope = np.array([0.0, 0.0, -0.375, -0.25, -0.125, 0.5, 1.0, 1.0, 1.0],
                     dtype=dtype).reshape(1, 1, 1, -1)
    gy = np.full_like(x, 2.0)
    gx = K.hard_swish_backward(Tensor(x), Tensor(gy)).data
    assert gx.dtype == dtype
    assert np.array_equal(gx, 2.0 * slope)


def test_hard_swish_backward_fd_away_from_kinks():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 8, 8)) * 2.0
    for kink in (-3.0, 3.0):   # keep sample points clear of the kinks
        near = np.abs(x - kink) < 0.05
        x[near] = kink + 0.1 * np.sign(x[near] - kink + 1e-9)
    r = rng.standard_normal(x.shape)

    def loss():
        return float(np.vdot(K.hard_swish(Tensor(x.copy())).data, r)) / 10.0

    gx = K.hard_swish_backward(Tensor(x.copy()), Tensor(r / 10.0))   # overwrites x
    _probe(loss, x, gx.data, rng)


def test_relu_backward_fd_away_from_kink():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(200)
    x[np.abs(x) < 0.05] = 0.1
    r = rng.standard_normal(200)

    def loss():
        return float(np.vdot(K.relu(x), r)) / 10.0

    gx = K.relu_backward(x, r / 10.0)
    _probe(loss, x, gx, rng)


def test_sigmoid_backward_fd():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(200) * 2.0
    r = rng.standard_normal(200)

    def loss():
        return float(np.vdot(K.sigmoid(x), r)) / 10.0

    gx = K.sigmoid_backward(K.sigmoid(x), r / 10.0)
    _probe(loss, x, gx, rng)


def test_global_avg_pool_backward_fd():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 5, 5))
    r = rng.standard_normal((2, 3, 1, 1))

    def loss():
        return float(np.vdot(K.global_avg_pool(Tensor(x)).data, r))

    gx = K.global_avg_pool_backward(x.shape, Tensor(r))
    _probe(loss, x, gx.data, rng)


def test_dense_backward_fd():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((3, 6)) * 0.5
    b = rng.standard_normal(3) * 0.1
    r = rng.standard_normal((4, 3))

    def loss():
        return float(np.vdot(K.dense(x, w, b), r)) / 10.0

    gx, gw, gb = K.dense_backward(x, w, r / 10.0)
    _probe(loss, x, gx, rng)
    _probe(loss, w, gw, rng)
    _probe(loss, b, gb, rng)


def test_softmax_cross_entropy_grad_fd():
    from revfuse.backbone import softmax_cross_entropy
    rng = np.random.default_rng(19)
    logits = rng.standard_normal((6, 5)) * 2.0
    labels = rng.integers(0, 5, size=6)

    def loss():
        return softmax_cross_entropy(logits, labels)[0]

    _, grad = softmax_cross_entropy(logits, labels)
    _probe(loss, logits, grad, rng)


def test_squeeze_excite_backward_fd():
    rng = np.random.default_rng(20)
    se = SqueezeExcite("se", channels=6, ratio=0.5, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 6, 5, 5))
    r = rng.standard_normal((2, 6, 5, 5))

    def loss():
        y, _ = se.forward(Tensor(x))
        return float(np.vdot(y.data, r)) / 10.0

    _, cache = se.forward(Tensor(x))
    gx, grads = se.backward(cache, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng)
    for name, arr in se.parameters():
        _probe(loss, arr, grads[name], rng, points=30)


def test_mbconv_backward_fd():
    rng = np.random.default_rng(21)
    block = MBConv("mb", in_c=4, out_c=4, kernel=3, stride=1, padding=1,
                   expansion=2, se_ratio=0.25, rng=rng, dtype=np.float64,
                   zero_final_gamma=False)
    x = rng.standard_normal((2, 4, 6, 6))
    r = rng.standard_normal(block.out_shape((2, 4, 6, 6)))

    def loss():
        y, _ = block.forward(Tensor(x))
        return float(np.vdot(y.data, r)) / 10.0

    _, cache = block.forward(Tensor(x))
    gx, grads = block.backward(cache, Tensor(r / 10.0))
    _probe(loss, x, gx.data, rng, points=60)
    for name, arr in block.parameters():
        _probe(loss, arr, grads[name], rng, points=12)
