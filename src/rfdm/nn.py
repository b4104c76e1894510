"""Minimal deterministic tensor/layer library with hand-derived backprop.

Everything is float64 and channels-last: images are [N, H, W, C], temporal
streams [N, T, C], dense activations [N, D]; ChannelReduce maps the last
axis of an input of any rank. Each layer implements forward(x, train) and
backward(dy); backward returns the input gradient and accumulates parameter
gradients into Param.grad. So a chain of layers is a plain list, run front
to back by one forward loop and back to front by one backward loop. A train
forward caches what backward needs, and backward consumes it: each layer
drops its cached inputs, masks or indices as its backward runs, so a chain's
caches are freed back to front while the backward loop walks it. Backward
therefore requires a preceding train forward, once per forward; an eval
forward keeps no backward state.

Conv2d lowers its input to im2col patch matrices one batch slice at a time
(IM2COL_CHUNK_BYTES per slice), so its memory does not grow with a matrix of
the whole batch; see Conv2d.

Backward derivations are checked against central finite differences in the
test suite (h = 1e-5, relative error <= 1e-4).
"""

import math

import numpy as np

from .errors import ShapeError

# Bytes of im2col matrix that Conv2d builds at a time. Swept over 1-16 MiB on
# the frame CNN's conv1-conv3 shapes at 512 frames (2-core Xeon, 2 MiB L2 per
# core, 1 BLAS thread), forward plus weight gradient of the three convs, two
# sweeps: 561-600 ms at 1 MiB, 576-580 ms at 2 MiB, 653-654 ms at 4 MiB,
# 691-712 ms at 8 MiB, 711-718 ms at 16 MiB, 968-975 ms as one whole-batch
# matrix. 1 and 2 MiB tie within noise; 2 MiB takes fewer chunks.
IM2COL_CHUNK_BYTES = 2 << 20


class Param:
    """A trainable buffer and its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    def params(self) -> list:
        return []

    def buffers(self) -> list:
        """(name, array) pairs of non-trainable state (e.g. BN running stats)."""
        return []


def _check_axis(x, ndim, axis, want, what):
    if x.ndim != ndim or x.shape[axis] != want:
        raise ShapeError(f"{what}: expected {ndim}-d with shape[{axis}] == {want}, got {x.shape}")


class Conv2d(Layer):
    """2-D cross-correlation at stride 1 with "same" zero padding, no bias:
    each Conv2d of the model feeds a train-mode BatchNorm2d, whose batch mean
    would cancel a bias and leave it a gradient of rounding noise.

    weights: [kh, kw, C_in, C_out]. Forward lowers the batch in slices of b
    images, b = max(1, IM2COL_CHUNK_BYTES // im2col bytes per image): each
    slice's im2col matrix is built in one copy and its GEMM written into the
    slice's rows of the output. Splitting a GEMM by rows leaves each
    output's dot product as it was: on the frame CNN's shapes the output is
    that of one whole-batch GEMM bit for bit (measured), though a slice small
    enough for the BLAS to pick a small-matrix kernel may round differently.
    A train forward caches only the padded input. Backward takes that cache
    (the layer then holds none), rebuilds the same slices and sums the
    weight gradient over them, which rounds differently from one
    whole-batch GEMM when there is more than one slice; unless need_dx is
    False it forms the data gradient tap by tap: tap (i, j) adds
    dy @ W[i, j].T into the input window it read.
    """

    def __init__(self, c_in, c_out, kh, kw, rng=None, name="conv"):
        rng = rng or np.random.default_rng(0)
        self.c_in, self.c_out, self.kh, self.kw = c_in, c_out, kh, kw
        self.w = Param(name + ".w", he_uniform(rng, (kh, kw, c_in, c_out), kh * kw * c_in))
        self._cache = None

    def params(self):
        return [self.w]

    def _geometry(self, h, w):
        """(Ho, Wo, (top, bottom), (left, right) padding) for an h x w input."""
        ph, pw = self.kh - 1, self.kw - 1
        return h, w, (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)

    def _im2col_chunks(self, xp):
        """(row slice, patch matrix) per slice of b images of the padded
        input: the matrix is [b*Ho*Wo, kh*kw*C_in], columns over (kh, kw,
        C_in) in weight order, and the slice selects its rows of the whole
        batch's [N*Ho*Wo, ...] output."""
        n, hp, wp, _ = xp.shape
        k = self.kh * self.kw * self.c_in
        rows = (hp - self.kh + 1) * (wp - self.kw + 1)
        b = max(1, IM2COL_CHUNK_BYTES // (rows * k * xp.itemsize))
        for s in range(0, n, b):
            win = np.lib.stride_tricks.sliding_window_view(xp[s : s + b], (self.kh, self.kw),
                                                           axis=(1, 2))
            cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
            yield slice(s * rows, (s + b) * rows), cols.reshape(-1, k)

    def forward(self, x, train=False):
        _check_axis(x, 4, 3, self.c_in, "Conv2d input channels")
        n, h, w, _ = x.shape
        _, _, (pt, pb), (pl, pr) = self._geometry(h, w)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0))) if pt or pb or pl or pr else x
        wmat = self.w.value.reshape(-1, self.c_out)
        out = np.empty((n * h * w, self.c_out))
        for rows, cols in self._im2col_chunks(xp):
            np.matmul(cols, wmat, out=out[rows])
        # _cache[0] has the whole-batch im2col matrix's shape but holds no
        # data (a zero-stride view): perfbench's tracer counts backward FLOPs
        # from it
        self._cache = (np.broadcast_to(0.0, (len(out), len(wmat))), xp) if train else None
        return out.reshape(n, h, w, self.c_out)

    def backward(self, dy, need_dx=True):
        """Accumulates w.grad; returns the input gradient, or None when
        need_dx is False (the input is data, not an activation)."""
        _, xp = self._cache
        self._cache = None
        dym = dy.reshape(-1, self.c_out)
        gw = self.w.grad.reshape(-1, self.c_out)
        for rows, cols in self._im2col_chunks(xp):
            # measured bit-equal to cols.T @ dym[rows], and faster on the
            # frame CNN's conv2 and conv3 shapes
            gw += (dym[rows].T @ cols).T
        if not need_dx:
            return None
        _, h, w, _ = dy.shape
        _, _, (pt, _), (pl, _) = self._geometry(h, w)
        dxp = np.zeros(xp.shape)
        for i in range(self.kh):
            for j in range(self.kw):
                dxp[:, i : i + h, j : j + w, :] += dy @ self.w.value[i, j].T
        return dxp[:, pt : pt + h, pl : pl + w, :]


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (N, H, W); eps = 1e-5.

    Train mode normalizes by biased batch statistics, updates running stats
    with momentum 0.9 and caches its input and the per-channel mean and
    1/std for backward; eval mode applies the running stats and keeps
    nothing."""

    def __init__(self, channels, momentum=0.9, eps=1e-5, name="bn"):
        self.c, self.momentum, self.eps = channels, momentum, eps
        self.gamma = Param(name + ".gamma", np.ones(channels))
        self.beta = Param(name + ".beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.name = name
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [(self.name + ".running_mean", self.running_mean),
                (self.name + ".running_var", self.running_var)]

    def forward(self, x, train=False):
        _check_axis(x, 4, 3, self.c, "BatchNorm2d channels")
        flat = x.reshape(-1, self.c)
        if train:
            m_count = flat.shape[0]
            if m_count < 2:
                raise ShapeError("BatchNorm2d train mode needs N*H*W >= 2")
            s1 = flat.sum(axis=0)
            s2 = np.einsum("nc,nc->c", flat, flat)
            mean = s1 / m_count
            var = np.maximum(s2 / m_count - mean * mean, 0.0)
            inv = 1.0 / np.sqrt(var + self.eps)
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
            self._cache = (x, mean, inv, m_count)
        else:
            mean = self.running_mean
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            self._cache = None
        a = self.gamma.value * inv
        b = self.beta.value - mean * a
        out = x * a
        out += b
        return out

    def backward(self, dy):
        x, mean, inv, m = self._cache
        self._cache = None
        flat_x = x.reshape(-1, self.c)
        flat_dy = dy.reshape(-1, self.c)
        dbeta = flat_dy.sum(axis=0)
        # sum(dy * xhat) = inv * (sum(dy * x) - mean * sum(dy))
        dgamma = inv * (np.einsum("nc,nc->c", flat_dy, flat_x) - mean * dbeta)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # dx = (gamma*inv/m) * (m*dy - dbeta - xhat*dgamma) with xhat = (x-mean)*inv,
        # expanded into per-channel constants
        c1 = self.gamma.value * inv
        k = (c1 / m) * dgamma * inv
        c0 = (c1 / m) * dbeta - k * mean
        dx = c1 * dy
        dx -= k * x
        dx -= c0
        return dx


class LeakyReLU(Layer):
    """max(x, alpha*x); a train forward caches only the sign mask x >= 0
    (1 byte per value), so the slope at x == 0 is 1. An eval forward keeps
    nothing."""

    def __init__(self, alpha=0.01):
        self.alpha = alpha
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x >= 0 if train else None
        out = self.alpha * x
        return np.maximum(x, out, out=out)

    def backward(self, dy):
        dx = self.alpha * dy
        np.copyto(dx, dy, where=self._mask)
        self._mask = None
        return dx


# window positions in first-index (row-major) tie-break order
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


class MaxPool2d(Layer):
    """2x2 window, stride 2; gradient routes to the first max per window.

    A train forward caches the uint8 window index of each maximum, not the
    input; an eval forward keeps nothing."""

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"MaxPool2d needs even spatial dims, got {h}x{w}")
        x00, x01, x10, x11 = (x[:, i::2, j::2, :] for i, j in _POOL_OFFSETS)
        top, bottom = np.maximum(x00, x01), np.maximum(x10, x11)
        self._cache = None
        if train:
            # strict > picks the later cell of a row and the bottom row only
            # when it beats the top one, so a tie keeps the first index
            idx = (x01 > x00).view(np.uint8)
            np.copyto(idx, (x11 > x10).view(np.uint8) + np.uint8(2), where=bottom > top)
            self._cache = (idx, (n, h, w, c))
        return np.maximum(top, bottom)

    def backward(self, dy):
        idx, (n, h, w, c) = self._cache
        self._cache = None
        dx = np.zeros((n, h, w, c))
        for m, (i, j) in enumerate(_POOL_OFFSETS):
            np.copyto(dx[:, i::2, j::2, :], dy, where=(idx == m))
        return dx


class ChannelReduce(Layer):
    """Pointwise (1x1) linear map across channels, the last axis of an input
    of any rank: [..., C] -> [..., C']."""

    def __init__(self, c_in, c_out, rng=None, name="reduce"):
        rng = rng or np.random.default_rng(0)
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(name + ".w", he_uniform(rng, (c_in, c_out), c_in))
        self.b = Param(name + ".b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
        _check_axis(x, x.ndim, -1, self.c_in, "ChannelReduce input channels")
        self._x = x if train else None
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        x, self._x = self._x, None
        dym = dy.reshape(-1, self.c_out)
        self.w.grad += x.reshape(-1, self.c_in).T @ dym
        self.b.grad += dym.sum(axis=0)
        return dy @ self.w.value.T


class CausalConv1d(Layer):
    """Dilated causal convolution over time: [N, T, C_in] -> [N, T, C_out].

    Left-pads with (kt-1)*dilation zeros so y[t] sees x[t-(kt-1)*d .. t];
    weight tap i corresponds to lag (kt-1-i)*d (tap kt-1 is 'now')."""

    def __init__(self, c_in, c_out, kt, dilation=1, rng=None, name="tconv"):
        rng = rng or np.random.default_rng(0)
        self.c_in, self.c_out, self.kt, self.dilation = c_in, c_out, kt, int(dilation)
        self.w = Param(name + ".w", he_uniform(rng, (kt, c_in, c_out), kt * c_in))
        self.b = Param(name + ".b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
        _check_axis(x, 3, 2, self.c_in, "CausalConv1d input channels")
        n, t, _ = x.shape
        pad = (self.kt - 1) * self.dilation
        xp = np.pad(x, ((0, 0), (pad, 0), (0, 0))) if pad else x
        out = np.broadcast_to(self.b.value, (n, t, self.c_out)).copy()
        for i in range(self.kt):
            out += xp[:, i * self.dilation : i * self.dilation + t, :] @ self.w.value[i]
        self._cache = (xp, (n, t)) if train else None
        return out

    def backward(self, dy):
        xp, (n, t) = self._cache
        self._cache = None
        pad = (self.kt - 1) * self.dilation
        dxp = np.zeros_like(xp)
        dym = dy.reshape(-1, self.c_out)
        for i in range(self.kt):
            sl = slice(i * self.dilation, i * self.dilation + t)
            self.w.grad[i] += xp[:, sl, :].reshape(-1, self.c_in).T @ dym
            dxp[:, sl, :] += dy @ self.w.value[i].T
        self.b.grad += dym.sum(axis=0)
        return dxp[:, pad:, :] if pad else dxp


class Dropout(Layer):
    """Inverted dropout: train zeroes with prob p and rescales by 1/(1-p);
    eval is the identity. The caller owns the mask stream and may replace
    `rng`."""

    def __init__(self, p):
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = np.random.default_rng(0)
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) >= self.p) / keep
        return x * self._mask

    def backward(self, dy):
        mask, self._mask = self._mask, None
        return dy if mask is None else dy * mask


class Dense(Layer):
    def __init__(self, d_in, d_out, rng=None, name="dense"):
        rng = rng or np.random.default_rng(0)
        self.d_in, self.d_out = d_in, d_out
        self.w = Param(name + ".w", he_uniform(rng, (d_in, d_out), d_in))
        self.b = Param(name + ".b", np.zeros(d_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
        _check_axis(x, 2, 1, self.d_in, "Dense input")
        self._x = x if train else None
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        x, self._x = self._x, None
        self.w.grad += x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels) -> tuple:
    """Numerically stable softmax cross-entropy of a batch.

    logits [N, K] with integer labels [N]: returns (mean loss, probs,
    dlogits) where dlogits = (probs - onehot)/N."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.shape
    if np.any(labels < 0) or np.any(labels >= k):
        raise IndexError(f"label out of range [0, {k})")
    probs = softmax(logits)
    nll = -np.log(probs[np.arange(n), labels])
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(nll.mean()), probs, dlogits / n


class Adam:
    """Adam with bias correction; eps sits outside the square root."""

    def __init__(self, params, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.param_list = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.param_list]
        self.v = [np.zeros_like(p.value) for p in self.param_list]

    def zero_grad(self):
        for p in self.param_list:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for p, m, v in zip(self.param_list, self.m, self.v):
            g = p.grad
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
