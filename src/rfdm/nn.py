"""Minimal deterministic tensor/layer library with hand-derived backprop.

Everything is float64 and channels-last: images are [N, H, W, C], temporal
streams [N, T, C], dense activations [N, D]. Each layer implements
forward(x, train) and backward(dy); backward returns the input gradient and
accumulates parameter gradients into Param.grad. Layers cache what their
backward needs between forward and backward, so one forward/backward pair
at a time.

Backward derivations are checked against central finite differences in the
test suite (h = 1e-5, relative error <= 1e-4).
"""

import math

import numpy as np

from .errors import ShapeError


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
    """2-D cross-correlation, stride/padding per config, bias included.

    weights: [kh, kw, C_in, C_out]. Forward lowers each batch to an im2col
    matrix in one copy and caches only the padded input; backward rebuilds
    the matrix for the weight-gradient GEMM, frees it, and scatters the
    column gradient back through the same offsets unless need_dx is False.
    """

    def __init__(self, c_in, c_out, kh, kw, stride=1, padding="same", rng=None, name="conv"):
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        rng = rng or np.random.default_rng(0)
        self.c_in, self.c_out, self.kh, self.kw = c_in, c_out, kh, kw
        self.stride, self.padding = int(stride), padding
        self.w = Param(name + ".w", he_uniform(rng, (kh, kw, c_in, c_out), kh * kw * c_in))
        self.b = Param(name + ".b", np.zeros(c_out))
        self._cache = None

    def params(self):
        return [self.w, self.b]

    def _geometry(self, h, w):
        s = self.stride
        if self.padding == "same":
            ho, wo = -(-h // s), -(-w // s)
            ph = max((ho - 1) * s + self.kh - h, 0)
            pw = max((wo - 1) * s + self.kw - w, 0)
        else:
            if self.kh > h or self.kw > w:
                raise ShapeError(f"kernel ({self.kh},{self.kw}) larger than input ({h},{w})")
            ho, wo = (h - self.kh) // s + 1, (w - self.kw) // s + 1
            ph = pw = 0
        return ho, wo, (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)

    def _im2col(self, xp):
        """[N*Ho*Wo, kh*kw*C_in] patch matrix of the padded input; columns run
        over (kh, kw, C_in) in weight order."""
        s = self.stride
        win = np.lib.stride_tricks.sliding_window_view(xp, (self.kh, self.kw), axis=(1, 2))
        cols = np.ascontiguousarray(win[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3))
        return cols.reshape(-1, self.kh * self.kw * self.c_in)

    def forward(self, x, train=False):
        _check_axis(x, 4, 3, self.c_in, "Conv2d input channels")
        n, h, w, _ = x.shape
        ho, wo, (pt, pb), (pl, pr) = self._geometry(h, w)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0))) if pt or pb or pl or pr else x
        cols = self._im2col(xp)
        out = cols @ self.w.value.reshape(-1, self.c_out)
        out += self.b.value
        # _cache[0] has the im2col matrix's shape but holds no data (a
        # zero-stride view): perfbench's tracer counts backward FLOPs from it
        self._cache = (np.broadcast_to(0.0, cols.shape), xp, (h, w), (pt, pl))
        return out.reshape(n, ho, wo, self.c_out)

    def backward(self, dy, need_dx=True):
        """Accumulates w.grad and b.grad; returns the input gradient, or None
        when need_dx is False (the input is data, not an activation)."""
        _, xp, (h, w), (pt, pl) = self._cache
        dym = dy.reshape(-1, self.c_out)
        self.w.grad += (self._im2col(xp).T @ dym).reshape(self.w.value.shape)
        self.b.grad += dym.sum(axis=0)
        if not need_dx:
            return None
        n, ho, wo, _ = dy.shape
        s, kh, kw, ci = self.stride, self.kh, self.kw, self.c_in
        dcols = (dym @ self.w.value.reshape(-1, self.c_out).T).reshape(n, ho, wo, kh, kw, ci)
        dxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + s * (ho - 1) + 1 : s,
                    j : j + s * (wo - 1) + 1 : s, :] += dcols[:, :, :, i, j, :]
        return dxp[:, pt : pt + h, pl : pl + w, :]


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (N, H, W); eps = 1e-5.

    Train mode normalizes by biased batch statistics and updates running
    stats with momentum 0.9; eval mode applies the running stats. Caches its
    input and the per-channel mean and 1/std."""

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
            self._cache = ("train", x, mean, inv, m_count)
        else:
            mean = self.running_mean
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            self._cache = ("eval", x, mean, inv, 0)
        a = self.gamma.value * inv
        b = self.beta.value - mean * a
        out = x * a
        out += b
        return out

    def backward(self, dy):
        mode, x, mean, inv, m = self._cache
        flat_x = x.reshape(-1, self.c)
        flat_dy = dy.reshape(-1, self.c)
        dbeta = flat_dy.sum(axis=0)
        # sum(dy * xhat) = inv * (sum(dy * x) - mean * sum(dy))
        dgamma = inv * (np.einsum("nc,nc->c", flat_dy, flat_x) - mean * dbeta)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        if mode == "eval":
            # running stats are constants here, so the chain is elementwise
            return dy * (self.gamma.value * inv)
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
        dx = np.zeros((n, h, w, c))
        for m, (i, j) in enumerate(_POOL_OFFSETS):
            np.copyto(dx[:, i::2, j::2, :], dy, where=(idx == m))
        return dx


class ChannelReduce(Layer):
    """Pointwise (1x1) linear map across channels: [N, L, C] -> [N, L, C']."""

    def __init__(self, c_in, c_out, rng=None, name="reduce"):
        rng = rng or np.random.default_rng(0)
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(name + ".w", he_uniform(rng, (c_in, c_out), c_in))
        self.b = Param(name + ".b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
        _check_axis(x, 3, 2, self.c_in, "ChannelReduce input channels")
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        n, l, _ = dy.shape
        self.w.grad += self._x.reshape(-1, self.c_in).T @ dy.reshape(-1, self.c_out)
        self.b.grad += dy.sum(axis=(0, 1))
        return dy @ self.w.value.T


def reduced_channel_count(c: int, divisor: int = 12) -> int:
    """Channel count after the 1/12 reduction (ceil, at least 1)."""
    return max(1, -(-c // divisor))


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
        self._cache = (xp, (n, t))
        return out

    def backward(self, dy):
        xp, (n, t) = self._cache
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
    eval is the identity. The mask stream is owned by the caller via set_rng."""

    def __init__(self, p):
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = np.random.default_rng(0)
        self._mask = None

    def set_rng(self, rng: np.random.Generator):
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) >= self.p) / keep
        return x * self._mask

    def backward(self, dy):
        return dy if self._mask is None else dy * self._mask


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
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        self.w.grad += self._x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels) -> tuple:
    """Numerically stable softmax cross-entropy.

    Batched [N, K] with integer labels [N]: returns (mean loss, probs,
    dlogits) where dlogits = (probs - onehot)/N. A single [K] vector returns
    the unscaled gradient probs - onehot."""
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    lg = logits[np.newaxis, :] if single else logits
    lab = np.asarray([labels] if single else labels, dtype=np.intp)
    n, k = lg.shape
    if np.any(lab < 0) or np.any(lab >= k):
        raise IndexError(f"label out of range [0, {k})")
    probs = softmax(lg)
    nll = -np.log(probs[np.arange(n), lab])
    dlogits = probs.copy()
    dlogits[np.arange(n), lab] -= 1.0
    if single:
        return float(nll[0]), probs[0], dlogits[0]
    return float(nll.mean()), probs, dlogits / n


class Adam(Layer):
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
            if g.shape != p.value.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.value.shape}")
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state(self):
        return {"t": self.t, "m": self.m, "v": self.v}

    def load_state(self, state):
        self.t = int(state["t"])
        for dst, src in zip(self.m, state["m"]):
            dst[...] = src
        for dst, src in zip(self.v, state["v"]):
            dst[...] = src
