"""Shared numeric utilities for the test suite, and one probe.

Kept independent of the package's own helpers so the oracles the tests use
are not the code under test.  The probe, ``watch_norm_caches``, wraps the
package's norm and conv VJPs to see when norm caches die.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np


def rel_diff(a: np.ndarray, b: np.ndarray, floor: float = 1e-30) -> float:
    """Max elementwise difference over the larger of the two magnitudes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b))) / scale


def central_fd(loss_fn, flat: np.ndarray, idx: int, step: float) -> float:
    """Plain central difference of ``loss_fn`` wrt one element of ``flat``."""
    orig = flat[idx]
    flat[idx] = orig + step
    lp = loss_fn()
    flat[idx] = orig - step
    lm = loss_fn()
    flat[idx] = orig
    return (lp - lm) / (2.0 * step)


def richardson_fd(loss_fn, flat: np.ndarray, idx: int, step: float) -> float:
    """Central difference extrapolated over steps ``step`` and ``step/2``,
    cancelling the O(step^2) truncation term (needed through deep stacks of
    batch-normalized blocks, whose third derivatives are large)."""
    coarse = central_fd(loss_fn, flat, idx, step)
    fine = central_fd(loss_fn, flat, idx, step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def affine_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit: returns (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def heap_peak(fn) -> tuple[object, int]:
    """Run ``fn()`` under ``tracemalloc``; returns (its result, the most
    bytes it held allocated at once)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def watch_norm_caches(monkeypatch) -> list[tuple[int, int]]:
    """Log, at each conv VJP, (arrays still alive, arrays read) of the norm
    caches whose VJPs ran since the previous conv VJP.  In an MBConv and in
    the head's tail, each norm VJP is followed by a conv VJP (project,
    depthwise, expand, final), which its cache's owner has no more need to
    wait for."""
    from revfuse.layers import BatchNorm, Conv2d
    norm_backward, conv_backward = BatchNorm.backward, Conv2d.backward
    read, log = [], []

    def norm_vjp(self, cache, gy):
        result = norm_backward(self, cache, gy)
        read.extend(weakref.ref(a) for a in cache[:2])      # xhat, inv_std
        return result

    def conv_vjp(self, *args, **kwargs):
        log.append((sum(r() is not None for r in read), len(read)))
        read.clear()
        return conv_backward(self, *args, **kwargs)

    monkeypatch.setattr(BatchNorm, "backward", norm_vjp)
    monkeypatch.setattr(Conv2d, "backward", conv_vjp)
    return log
