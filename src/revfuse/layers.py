"""Parameterized layers built on the raw kernels.

Each layer owns its numpy parameter arrays (updated in place by the
optimizer), exposes them as ordered ``(name, array)`` pairs, and implements
an explicit forward-with-cache / backward-from-cache pair, so a
stored-mode backward re-evaluates no layer.  Caches hold what the
hand-derived VJPs need, less what is cheap to rebuild exactly: an MBConv
keeps its input, each batch norm's normalized input and statistics, and
the squeeze-excite vectors.  Its backward rebuilds the norm outputs, the
hard-swish outputs and the squeeze-excite product bit for bit from those,
each just before the VJP that reads it and dropped right after (Pleiss et
al. 2017, *Memory-Efficient Implementation of DenseNets*).  A replay (a
forward in the ``BACKWARD`` phase, whose VJP runs at once) folds no running
average, and its cache keeps of an expansion stage run in channel chunks
only each chunk's mean and inv_std.  A VJP takes its cache over, letting
each part go after its last reader.  A rebuilt or recomputed array is an
activation: a backward given a live-bytes registry counts it while alive;
given ``None`` it counts nothing.  The norm output a hard-swish VJP reads
is the exception: it is rebuilt a channel chunk at a time as kernel
scratch, as hard-swish's own.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from . import kernels as K
from .context import BACKWARD, FORWARD, ExecContext
from .errors import ConfigurationError
from .tensor import Tensor


def _kaiming(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d:
    """Bias-free 1x1 or depthwise convolution (see ``kernels.ConvParams``);
    weights use Kaiming-normal init."""

    def __init__(self, name: str, in_c: int, out_c: int, kernel: int, *,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 rng: np.random.Generator, dtype):
        fan_in = (in_c // groups) * kernel * kernel
        weights = _kaiming(rng, (out_c, in_c // groups, kernel, kernel), fan_in, dtype)
        self.name = name
        self.params = K.ConvParams(weights, stride, padding, groups)
        if in_c != self.params.in_channels:
            raise ConfigurationError(
                f"{name}: groups {groups} do not divide in_channels {in_c}"
            )

    def forward(self, x: Tensor):
        y = K.conv2d(x, self.params)
        return y, (x,)

    def backward(self, cache, gy: Tensor, overwrite: bool = False):
        """With ``overwrite``, a depthwise conv writes its input gradient
        over the cached input, which the caller gives up."""
        (x,) = cache
        gx, gw = K.conv2d_backward(x, self.params, gy, overwrite)
        return gx, {f"{self.name}.weight": gw}

    def parameters(self):
        return [(f"{self.name}.weight", self.params.weights)]

    def out_shape(self, in_shape):
        n, c, h, w = in_shape
        kh, kw = self.params.kernel
        oh = K.conv_out_size(h, kh, self.params.stride, self.params.padding)
        ow = K.conv_out_size(w, kw, self.params.stride, self.params.padding)
        return (n, self.params.out_channels, oh, ow)

    def macs(self, in_shape) -> int:
        return K.conv2d_macs(in_shape, self.params)


class BatchNorm:
    """Batch normalization over (n, h, w) per channel.

    ``zero_gamma`` zero-initializes the scale so the layer (and anything it
    terminates) starts as the zero map — the identity-at-init trick for
    residual fusion transforms.  In train mode only a ``FORWARD``-phase
    call, or one with no ctx, folds the batch statistics into the running
    averages; a replay (``BACKWARD``) does not.
    """

    def __init__(self, name: str, channels: int, *, dtype, zero_gamma: bool = False):
        self.name = name
        self.state = K.NormState.create(channels, dtype, zero_gamma)

    def forward(self, x: Tensor, ctx: ExecContext | None = None, mean_out=None):
        ctx = ctx or ExecContext()
        return K.batch_norm(x, self.state, ctx.train, ctx.phase == FORWARD, mean_out)

    def output(self, cache) -> Tensor:
        """The forward's output, rebuilt bit for bit from its cache."""
        return Tensor(K.batch_norm_output(cache, self.state))

    def backward(self, cache, gy: Tensor):
        gx, dgamma, dbeta = K.batch_norm_backward(cache, self.state, gy)
        return gx, {f"{self.name}.gamma": dgamma, f"{self.name}.beta": dbeta}

    def parameters(self):
        return [(f"{self.name}.gamma", self.state.gamma),
                (f"{self.name}.beta", self.state.beta)]


class SqueezeExcite:
    """Channel gating: pool -> bottleneck dense -> relu -> dense -> sigmoid."""

    def __init__(self, name: str, channels: int, ratio: float, *,
                 rng: np.random.Generator, dtype):
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(f"{name}: squeeze ratio must be in (0, 1], got {ratio}")
        hidden = max(1, round(channels * ratio))
        self.name = name
        self.w1 = _kaiming(rng, (hidden, channels), channels, dtype)
        self.b1 = np.zeros(hidden, dtype=dtype)
        self.w2 = _kaiming(rng, (channels, hidden), hidden, dtype)
        self.b2 = np.zeros(channels, dtype=dtype)

    def forward(self, x: Tensor):
        n, c, h, w = x.shape
        pooled = K.global_avg_pool(x)              # (n, c, 1, 1)
        s = pooled.data.reshape(n, c)
        z1 = K.dense(s, self.w1, self.b1)
        a1 = K.relu(z1)
        z2 = K.dense(a1, self.w2, self.b2)
        gate = K.sigmoid(z2)                       # (n, c)
        cache = (x, s, z1, a1, gate)
        return self.gated(x, gate), cache

    @staticmethod
    def gated(x: Tensor, gate: np.ndarray) -> Tensor:
        """The output from the input and the gate, as forward makes it."""
        return Tensor(x.data * gate[:, :, None, None])

    def backward(self, cache, gy: Tensor):
        x, s, z1, a1, gate = cache
        n, c, h, w = x.shape
        g = gy.data
        gx_direct = g * gate[:, :, None, None]
        ggate = (g * x.data).sum(axis=(2, 3))      # (n, c)
        gz2 = K.sigmoid_backward(gate, ggate)
        ga1, gw2, gb2 = K.dense_backward(a1, self.w2, gz2)
        gz1 = K.relu_backward(z1, ga1)
        gs, gw1, gb1 = K.dense_backward(s, self.w1, gz1)
        gx = gx_direct + (gs / (h * w))[:, :, None, None]
        grads = {
            f"{self.name}.w1": gw1, f"{self.name}.b1": gb1,
            f"{self.name}.w2": gw2, f"{self.name}.b2": gb2,
        }
        return Tensor(gx), grads

    def parameters(self):
        return [(f"{self.name}.w1", self.w1), (f"{self.name}.b1", self.b1),
                (f"{self.name}.w2", self.w2), (f"{self.name}.b2", self.b2)]

    def macs(self, in_shape) -> int:
        n, c = in_shape[0], in_shape[1]
        hidden = self.w1.shape[0]
        return K.dense_macs(c, hidden, n) + K.dense_macs(hidden, c, n)


def counted(registry, obj, label: str):
    """``obj``, counted in ``registry`` while it lives; ``None`` counts nothing."""
    return obj if registry is None else registry.add(obj, label)


class MBConv:
    """Inverted-bottleneck block: 1x1 expand, depthwise conv, optional
    squeeze-excite, 1x1 project; batch norm + hard-swish between stages.

    With ``zero_final_gamma`` the projection norm starts at zero, so a fresh
    block computes the zero map — used for residual branches that must leave
    the network an identity at initialization.  The expansion stage is
    omitted when the expansion ratio is 1.
    """

    def __init__(self, name: str, in_c: int, out_c: int, *, kernel: int, stride: int,
                 padding: int, expansion: int = 1, se_ratio: float | None = None,
                 zero_final_gamma: bool = False, rng: np.random.Generator, dtype):
        if expansion < 1:
            raise ConfigurationError(f"{name}: expansion ratio must be >= 1, got {expansion}")
        mid = in_c * expansion
        bn = lambda tag, ch, zero=False: BatchNorm(
            f"{name}.{tag}", ch, dtype=dtype, zero_gamma=zero)
        self.name = name
        self.in_c, self.out_c = in_c, out_c
        self.expand = (Conv2d(f"{name}.expand", in_c, mid, 1, rng=rng, dtype=dtype)
                       if expansion > 1 else None)
        self.bn_expand = bn("expand_norm", mid) if expansion > 1 else None
        self.dw = Conv2d(f"{name}.dw", mid, mid, kernel, stride=stride,
                         padding=padding, groups=mid, rng=rng, dtype=dtype)
        self.bn_dw = bn("dw_norm", mid)
        self.se = (SqueezeExcite(f"{name}.se", mid, se_ratio, rng=rng, dtype=dtype)
                   if se_ratio else None)
        self.project = Conv2d(f"{name}.project", mid, out_c, 1, rng=rng, dtype=dtype)
        self.bn_project = bn("project_norm", out_c, zero=zero_final_gamma)
        self._stages = [s for s in (self.expand, self.bn_expand) if s] + [
            self.dw, self.bn_dw] + ([self.se] if self.se else []) + [
            self.project, self.bn_project]

    def forward(self, x: Tensor, ctx: ExecContext | None = None):
        # the cache: the input, each batch norm's cache, the squeeze-excite
        # vectors (s, z1, a1, gate); every other activation is dropped here
        # and rebuilt by backward (the expand norm's entry: see _expand)
        norms = []
        se = None
        if self.expand is None:
            t, _ = self.dw.forward(x)
        else:
            replay = ctx is not None and ctx.phase == BACKWARD
            t, c = self._expand(x, ctx, self.chunks(x.shape, replay))
            norms.append(c)
        t, c = self.bn_dw.forward(t, ctx); norms.append(c)
        t = K.hard_swish(t)
        if self.se is not None:
            t, c = self.se.forward(t); se = c[1:]
        t, _ = self.project.forward(t)
        t, c = self.bn_project.forward(t, ctx); norms.append(c)
        return t, [x, norms, se]

    def chunks(self, in_shape, replay: bool) -> list[slice]:
        """The expansion stage's channel chunks for an input of ``in_shape``:
        one, or for a ``replay`` the fewest equal chunks of at most
        max(in_c, K.CHUNK_ELEMENTS // (n*h*w)) channels, none narrower than
        the input it is recomputed from."""
        mid = self.dw.params.out_channels
        n, _, h, w = in_shape
        k = -(-mid // max(self.in_c, K.CHUNK_ELEMENTS // (n * h * w))) if replay else 1
        edges = [mid * i // k for i in range(k + 1)]
        return [slice(a, b) for a, b in zip(edges, edges[1:])]

    def _stage(self, cs: slice):
        """(expand, expand norm, depthwise) cut to channels ``cs``, over
        views of their arrays, so running averages fold into the whole
        norm's; for all channels, the layers themselves."""
        if cs == slice(0, self.dw.params.out_channels):
            return self.expand, self.bn_expand, self.dw
        expand, bn, dw = (copy.copy(m) for m in (self.expand, self.bn_expand, self.dw))
        p, q, s = self.expand.params, self.dw.params, self.bn_expand.state
        expand.params = K.ConvParams(p.weights[cs])
        dw.params = K.ConvParams(q.weights[cs], q.stride, q.padding, cs.stop - cs.start)
        bn.state = dataclasses.replace(s, **{k: getattr(s, k)[cs] for k in (
            "gamma", "beta", "running_mean", "running_var")})
        return expand, bn, dw

    def _expand(self, x: Tensor, ctx, spans: list[slice]):
        """Expand 1x1 -> norm -> hard-swish -> depthwise, one chunk of
        ``spans`` at a time, with the whole stage's bits (it is per channel,
        Sandler et al. 2018, section 5.1).  Returns the depthwise output and
        the expand norm's entries: a lone chunk's norm cache, or each
        chunk's (mean, inv_std, train) for backward to recompute from."""
        several = len(spans) > 1
        entries, ys = [], []
        for cs in spans:
            expand, bn, dw = self._stage(cs)
            mean = np.empty(cs.stop - cs.start, x.dtype) if several else None
            t, c = bn.forward(expand.forward(x)[0], ctx, mean)
            entries.append((mean, *c[1:]) if several else c)
            ys.append(dw.forward(K.hard_swish(t))[0].data)
            del t, c
        return Tensor(np.concatenate(ys, axis=1) if several else ys[0]), entries

    def backward(self, cache, gy: Tensor, registry=None):
        """VJP from forward's cache, which it takes over: it lets go of each
        part once that part's last reader has run, setting its slot to
        ``None``.  Each activation a VJP reads is rebuilt just before it and
        dropped after its last reader, counted in ``registry`` (if any)
        meanwhile.  A hard-swish VJP reads its norm's output rebuilt a
        channel chunk at a time into scratch, and the expansion stage's
        depthwise VJP writes its input gradient over the hard-swish output
        it read.  The expansion stage runs forward's chunks, recomputing
        those that kept a mean."""
        x, norms = cache[0], cache[1]
        cache[0] = None              # ``x`` holds it for its last reader
        rebuilt = lambda obj: counted(registry, obj, f"{self.name}.rebuilt")
        grads: dict[str, np.ndarray] = {}
        g, gr = self.bn_project.backward(norms[-1], gy); grads.update(gr)
        norms[-1] = None
        h = K.hard_swish(rebuilt(self.bn_dw.output(norms[-2])))
        if self.se is not None:
            q = rebuilt(SqueezeExcite.gated(h, cache[2][-1]))
            g, gr = self.project.backward((q,), g); grads.update(gr)
            del q
            g, gr = self.se.backward((h, *cache[2]), g); grads.update(gr)
            cache[2] = None
        else:
            g, gr = self.project.backward((h,), g); grads.update(gr)
        del h
        g = K.batch_norm_hard_swish_backward(norms[-2], self.bn_dw.state, g)
        g, gr = self.bn_dw.backward(norms[-2], g); grads.update(gr)
        norms[-2] = None
        if self.expand is None:
            g, gr = self.dw.backward((x,), g); grads.update(gr)
            return g, grads
        gx, parts = None, []
        for k, cs in enumerate(self.chunks(x.shape, len(norms[0]) > 1)):
            expand, bn, dw = self._stage(cs)
            c, e = norms[0][k], None
            norms[0][k] = None
            if c[0].ndim == 1:                   # (mean, inv_std, train)
                e = rebuilt(expand.forward(x)[0])
                c = K.batch_norm_cache(e, *c)    # xhat, over e's buffer
            h = K.hard_swish(rebuilt(bn.output(c)))
            gc, part = dw.backward((h,), Tensor(g.data[:, cs]), overwrite=True)
            del h                                # its buffer holds gc now
            gc = K.batch_norm_hard_swish_backward(c, bn.state, gc)
            gc, gr = bn.backward(c, gc); part.update(gr)
            del c, e
            gc, gr = expand.backward((x,), gc); part.update(gr)
            gx = gc if gx is None else Tensor(np.add(gx.data, gc.data, out=gx.data))
            parts.append(part)
        grads.update((k, np.concatenate([p[k] for p in parts])) for k in parts[0])
        return gx, grads

    def parameters(self):
        out = []
        for stage in self._stages:
            out.extend(stage.parameters())
        return out

    def out_shape(self, in_shape):
        shape = in_shape
        if self.expand is not None:
            shape = self.expand.out_shape(shape)
        shape = self.dw.out_shape(shape)
        return self.project.out_shape(shape)

    def macs(self, in_shape) -> int:
        total = 0
        shape = in_shape
        if self.expand is not None:
            total += self.expand.macs(shape)
            shape = self.expand.out_shape(shape)
        total += self.dw.macs(shape)
        shape = self.dw.out_shape(shape)
        if self.se is not None:
            total += self.se.macs(shape)
        total += self.project.macs(shape)
        return total


class Dense:
    """Affine layer on flat features (the classifier)."""

    def __init__(self, name: str, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.weights = _kaiming(rng, (out_features, in_features), in_features, dtype)
        self.bias = np.zeros(out_features, dtype=dtype)

    def forward(self, x: np.ndarray):
        return K.dense(x, self.weights, self.bias), (x,)

    def backward(self, cache, gy: np.ndarray):
        (x,) = cache
        gx, gw, gb = K.dense_backward(x, self.weights, gy)
        return gx, {f"{self.name}.weight": gw, f"{self.name}.bias": gb}

    def parameters(self):
        return [(f"{self.name}.weight", self.weights), (f"{self.name}.bias", self.bias)]

    def macs(self, batch: int = 1) -> int:
        return K.dense_macs(self.weights.shape[1], self.weights.shape[0], batch)
