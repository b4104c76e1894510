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

Conv2d runs its three GEMMs (forward, weight gradient and data gradient)
through one lowering: im2col patch matrices built one batch slice at a time
(at most IM2COL_CHUNK_BYTES per slice), each slice zero-padded on its own,
so its memory grows with neither a patch matrix nor a padded copy of the
whole batch; see Conv2d. BatchNorm2d writes its input gradient with no
temporary of the whole batch's size. MaxPool2d is no layer of a chain but
a kernel with no state over one layout, a 2x2 window's four positions as
blocks (window_view of images, the one place that splits them into
windows): its caller keeps the index, and its backward routes into the
caller's buffer with one mask of a byte per value. A BatchNorm2d built
with pool=True runs its 2x2 max-pool before it normalizes, one slice of
images at a time: each slice's four window positions, signed per channel,
fill one slice-sized buffer as four contiguous blocks, which the pool
reads. It keeps the index in its own cache and normalizes only the pooled
quarter, so it makes no full-size output and never writes its input, and
its backward writes the input gradient over the pool's routed gradient.
One built with conv=<the Conv2d feeding it> is the whole conv -> BN ->
pool block: its slices are the conv's lowering in window-major row order,
in both passes, so neither the conv output nor its gradient ever exists at
full size, and its backward forms the conv's weight gradient from the
patches' moments. See BatchNorm2d. Every slice loop here takes its images
per slice from slice_len, and every BatchNorm2d sums its batch statistics
over such slices of rows, adding the slice sums.

Backward derivations are checked against central finite differences in the
test suite (h = 1e-5, relative error <= 1e-4).
"""

import math

import numpy as np

from .errors import ShapeError

# Bytes of the one array per slice that sizes a slice loop: the im2col patch
# matrix, or in BatchNorm2d's backward the k*x temporary (see slice_len). A
# slice holds a few arrays of about this size (block 1's four), which fit in
# a core's 2 MiB L2 at 0.5 MiB. Swept on whole batch-32 train steps of the
# default CnnTcnConfig and on 16-frame predicts (2-core Xeon, 1 BLAS thread),
# median step of each of 5 processes and median predict over them:
#   0.25 MiB  694 706 723 754 789 ms   predict 5.64 ms
#   0.5 MiB   649 683 687 722 723 ms           5.41 ms
#   1 MiB     644 686 703 712 812 ms           5.69 ms
#   2 MiB     700 722 771 788 808 ms           6.14 ms
# (0.375, 0.75 and 1.5 MiB in 2-4 processes: 698, 718-740 and 709-924 ms.)
# Sizing each loop by all the buffers it holds, not by this one array, ran
# no faster at its best budget (1 MiB) on rfdm eval --protocol loocv.
IM2COL_CHUNK_BYTES = 512 << 10


def slice_len(n, item_bytes):
    """Images per slice of a loop over n images that makes item_bytes of
    its sizing array (patch matrix or k*x) per image: as many as fit in
    IM2COL_CHUNK_BYTES, at least 1 and at most n."""
    return max(1, min(n, IM2COL_CHUNK_BYTES // item_bytes))


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


class Conv2d(Layer):
    """2-D cross-correlation at stride 1 with "same" zero padding, no bias:
    each Conv2d of the model feeds a train-mode BatchNorm2d, whose batch mean
    would cancel a bias and leave it a gradient of rounding noise.

    weights: [kh, kw, C_in, C_out]. All three GEMMs go through one lowering,
    _im2col_chunks: it splits the batch into slices of b images, b =
    slice_len of the patch matrix's bytes per image, copies each slice
    into a buffer zero-padded to "same" geometry and that into one patch
    matrix, whose GEMM lands in the slice's rows of the result. A
    BatchNorm2d built with conv=<this layer> runs the lowering itself and
    never calls this layer's forward or backward; see BatchNorm2d.
    Splitting a GEMM by rows leaves each output's dot product as it was: on
    the frame CNN's shapes the output is that of one whole-batch GEMM bit for
    bit (measured), though a slice small enough for the BLAS to pick a
    small-matrix kernel may round differently. A train forward caches the
    unpadded input, and no padded copy of the whole batch is ever made.
    Backward takes that cache (the layer then holds none) and lowers it again
    to sum the weight gradient over the slices, which rounds differently
    from one whole-batch GEMM when there is more than one slice. It lowers
    dy the same way for the data gradient: a "same" correlation of dy with
    the kernel flipped in (kh, kw) and its channel axes swapped. That needs
    dy padded on the opposite sides to forward, which for an odd kernel are
    the same sides, so the kernel must be odd (model.FRAME_KERNEL is).
    """

    def __init__(self, c_in, c_out, kh, kw, rng, name="conv"):
        self.c_in, self.c_out, self.kh, self.kw = c_in, c_out, kh, kw
        self.w = Param(name + ".w", he_uniform(rng, (kh, kw, c_in, c_out), kh * kw * c_in))
        self._cache = None

    def params(self):
        return [self.w]

    def _geometry(self, h, w):
        """(Ho, Wo, (top, bottom), (left, right) padding) for an h x w input."""
        ph, pw = self.kh - 1, self.kw - 1
        return h, w, (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)

    def _slice_images(self, x):
        """Images b in each slice that _im2col_chunks(x) lowers: slice_len
        of the patch matrix's bytes per image."""
        return slice_len(len(x), math.prod(x.shape[1:]) * x.itemsize * self.kh * self.kw)

    def _im2col_chunks(self, x, window_major=False):
        """(image slice, patch matrix) per slice of b images of x
        [N, H, W, C]: the matrix is [b*H*W, kh*kw*C], columns over
        (kh, kw, C) in weight order, rows over (image, i, j), built from the
        slice zero-padded to "same" geometry. Each slice is copied into the
        interior of one zero-bordered buffer, which the next slice
        overwrites, and one sliding-window view of that buffer serves every
        slice: use a matrix, and drop it, before asking for the next.

        window_major orders each slice's rows by (i % 2, j % 2, image,
        i // 2, j // 2), the window_view of the slice, so that its GEMM
        output is the four positions of the 2x2 pool's windows as four
        contiguous blocks, each in pooled [b, H/2, W/2] order (H and W
        even); a BatchNorm2d built with conv=<this layer> lowers so. That
        matrix is built K-major, [kh*kw*C, b*H*W], and yielded transposed,
        so that each of its rows copies along the padded buffer's width
        (1.7x faster than the row-major build on conv1's 512-frame input,
        measured); its GEMM gives the row-major build's bits row for row
        (measured on 4-17408 rows, 2-32 columns)."""
        n, h, w, c = x.shape
        _, _, (pt, pb), (pl, pr) = self._geometry(h, w)
        k = self.kh * self.kw * c
        b = self._slice_images(x)
        xp = np.zeros((b, pt + h + pb, pl + w + pr, c), dtype=x.dtype)
        # [b, H, W, C, kh, kw]
        win = np.lib.stride_tricks.sliding_window_view(xp, (self.kh, self.kw), axis=(1, 2))
        if window_major:
            # [kh, kw, C, 2, 2, b, H/2, W/2]
            win = window_view(win).transpose(6, 7, 5, 0, 1, 2, 3, 4)
        else:
            # [b, H, W, kh, kw, C]
            win = win.transpose(0, 1, 2, 4, 5, 3)
        for s in range(0, n, b):
            m = min(b, n - s)
            xp[:m, pt : pt + h, pl : pl + w] = x[s : s + m]
            # not kept in a local: only the caller holds a slice's matrix
            yield (slice(s, s + m),
                   np.ascontiguousarray(win[..., :m, :, :]).reshape(k, -1).T if window_major
                   else np.ascontiguousarray(win[:m]).reshape(-1, k))

    def _lowered_gemm(self, x, wmat):
        """The "same" correlation of x with wmat [kh*kw*C, C'] as [N, H, W, C']."""
        out = np.empty(x.shape[:3] + wmat.shape[1:])
        for imgs, cols in self._im2col_chunks(x):
            np.matmul(cols, wmat, out=out[imgs].reshape(len(cols), -1))
            del cols
        return out

    def forward(self, x, train=False):
        wmat = self.w.value.reshape(-1, self.c_out)
        # _cache[0] has the whole-batch im2col matrix's shape but holds no
        # data (a zero-stride view): perfbench's tracer counts backward FLOPs
        # from it
        rows = x.size // self.c_in
        self._cache = (np.broadcast_to(0.0, (rows, len(wmat))), x) if train else None
        return self._lowered_gemm(x, wmat)

    def backward(self, dy):
        """Accumulates w.grad; returns the input gradient."""
        _, x = self._cache
        self._cache = None
        wflip = self.w.value[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, self.c_in)
        dx = self._lowered_gemm(dy, wflip)
        gw = self.w.grad.reshape(-1, self.c_out)
        for imgs, cols in self._im2col_chunks(x):
            # measured bit-equal to cols.T @ dy's rows, and faster on the
            # frame CNN's conv2 and conv3 shapes
            gw += (dy[imgs].reshape(len(cols), -1).T @ cols).T
            del cols
        return dx


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (N, H, W); eps = 1e-5. With
    pool=True the layer also applies the 2x2 max-pool that follows it (the
    MaxPool2d kernel, `self.pool`), run before it normalizes on the signed
    input, a slice at a time (_pooled): it makes no full-size normalized map,
    and its backward routes dy into a new input-sized dz through the window
    view, a slice of images at a time, and writes dx over it. With conv, the
    Conv2d that feeds it (and pool=True: only the pooled forward runs the
    conv), the layer is the whole conv -> BN -> pool block: it takes the
    conv's input, its params() are the conv's weight, gamma and beta, and
    the conv's output never exists at full size (see the last paragraph).

    Train mode normalizes by biased batch statistics, updates running stats
    with momentum 0.9 and caches, for backward, its input, the per-channel
    mean and 1/std, the count N*H*W and last the pool's uint8 index (None
    without a pool); eval mode applies the running stats and keeps nothing.
    Either mode maps each channel by z = a*x + b, a = gamma/std, which has
    gamma's sign. The statistics come from the per-channel sum and sum of
    squares, formed a slice of rows at a time (_add_moments): the slices of
    backward's dx loop (_row_slices), or with a conv the slices of its
    lowering, in window-major row order.

    Pooling: z is monotone in x per channel (increasing for a >= 0,
    decreasing for a < 0), and so is its rounding, fl(fl(a*x) + b). So the
    window max of z is fl(fl(|a|*max y) + b) bit for bit, with y = x, or
    y = -x on channels where a < 0. Forward pools y a slice of images at a
    time: it copies each slice's window_view, times each channel's sign
    (exact), into one slice-sized buffer as four contiguous blocks and
    pools those, so the input is only read and the slice's copy is all it
    makes beside the pooled output and index. The gradient goes to the
    first max of y in each window, which is the first max of z but where
    two distinct inputs of a window round to one z: there it goes to the
    larger y, not to the first of the tied outputs.

    Backward writes the input gradient dx = c1*dz - k*x - c0 a slice of
    images at a time (see _slice_images), each value rounded as in the
    whole-array form, so beside dz (dy, or the pool's routing of dy), dx and
    the cached input it holds only slice-sized temporaries. With a pool, dx
    overwrites dz, which is this layer's own, so one full-size array serves
    both.

    With a conv (conv1 in the model: one input channel, 15 patch columns),
    both passes run over the conv's window-major im2col slices (see
    Conv2d._im2col_chunks), and the layer caches the conv's input. Forward
    fills the slice buffer with the slice's GEMM by the conv weight with
    the columns of the channels where a < 0 negated, which negates their
    GEMM outputs exactly, and pools it as above. A train forward sums that
    product's rows and their squares while it is in cache.
    So the pool index and an eval forward's outputs are those of
    Conv2d.forward then a pooled BatchNorm2d bit for bit; a train forward's
    outputs differ from them at rounding level, as the slices and row order
    of the statistics' sums differ. Backward routes dy into the
    four window blocks of one slice-sized dz buffer, a slice at a time, and
    sums the patch moments G = cols^T dz, S = cols^T cols and
    colsum = cols^T 1 over rows in window-major order. Then
    sum(dz*x) = sum_k w*G, and the conv's weight gradient cols^T dx is
    c1*G - k*(S w) - colsum c0^T, which cancels as E[x^2] - mean^2 does
    when the conv output's mean is large against its std. It returns no
    input gradient: the conv's input is the data."""

    momentum, eps = 0.9, 1e-5

    def __init__(self, channels, name="bn", pool=False, conv=None):
        self.c = channels
        self.gamma = Param(name + ".gamma", np.ones(channels))
        self.beta = Param(name + ".beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.name = name
        self.pool = MaxPool2d() if pool else None
        self.conv = conv
        self._cache = None

    def params(self):
        return ([] if self.conv is None else self.conv.params()) + [self.gamma, self.beta]

    def buffers(self):
        return [(self.name + ".running_mean", self.running_mean),
                (self.name + ".running_var", self.running_var)]

    def forward(self, x, train=False):
        m_count = x.shape[0] * x.shape[1] * x.shape[2]
        if train and m_count < 2:
            raise ShapeError("BatchNorm2d train mode needs N*H*W >= 2")
        if self.pool is not None:
            out, index, sums = self._pooled(x, train)
        else:
            out = index = None
            if train:
                sums, flat = np.zeros((2, self.c)), x.reshape(-1, self.c)
                for rows in self._row_slices(x):
                    _add_moments(sums, flat[rows])
        if train:
            mean = sums[0] / m_count
            var = np.maximum(sums[1] / m_count - mean * mean, 0.0)
            inv = 1.0 / np.sqrt(var + self.eps)
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
            self._cache = (x, mean, inv, m_count, index)
        else:
            mean = self.running_mean
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            self._cache = None
        a = self.gamma.value * inv
        b = self.beta.value - mean * a
        if out is None:
            out = x * a
        else:
            # the pooled maxima are a new array, scaled in place: scaling into
            # a second quarter-size array left heap holes that raised a LOOCV
            # run's peak RSS from 252-260 to 312 MB (measured)
            out *= np.abs(a)
        out += b
        return out

    def _slice_images(self, x):
        """Images per slice of backward's dx loop over x, and of a pooled
        forward's: slice_len of its k*x temporary's (or the slice buffer's)
        bytes per image. (With a conv, the layer's passes slice as the
        conv's lowering does: Conv2d._slice_images.)"""
        return slice_len(len(x), x[0].nbytes)

    def _row_slices(self, x):
        """Slices of x's rows [N*H*W, C], _slice_images(x) images each: the
        rows that a train forward sums at a time, and backward's pool routes
        and dx loop writes at a time."""
        step = self._slice_images(x) * x.shape[1] * x.shape[2]
        return (slice(s, s + step) for s in range(0, x.size // x.shape[3], step))

    def _pooled(self, x, train):
        """(the pool of the signed input, and in train mode the pool's index
        and the per-channel sum and sum of squares of what the layer
        normalizes, as the rows of one array), one slice of images at a time
        into one slice-sized buffer. Each slice's four window positions fill
        the buffer as four contiguous blocks, each channel multiplied by the
        sign of its a: with a conv, by the window-major GEMM of the slice's
        patches with the weight columns so signed; without, by a signed
        copy of the slice's window_view. The pool writes each slice's maxima
        and index straight into their rows of the batch's, and a train
        forward adds the slice's moments while it is in cache: the signed
        GEMM output's (sums[0] then unsigned), or the slice's rows of x,
        those of _row_slices."""
        conv, c = self.conv, self.c
        n, h, w, _ = x.shape
        sign = np.where(self.gamma.value < 0, -1.0, 1.0)
        if conv is None:
            xw, b = window_view(x), self._slice_images(x)
            slices = ((slice(s, min(n, s + b)), None) for s in range(0, n, b))
        else:
            wmat, b = conv.w.value.reshape(-1, c) * sign, conv._slice_images(x)
            slices = conv._im2col_chunks(x, window_major=True)
        # the slice buffer is made before the batch's output and its one
        # index array: made after them, or with an index array per slice kept
        # until backward, a LOOCV run's peak RSS read up to 5 MB higher
        # (measured beside a second slice buffer, over several checkout
        # paths, between which it moves by heap layout)
        buf = np.empty((b * h * w, c))
        out = np.empty((n, h // 2, w // 2, c))
        index = np.empty(out.shape, np.uint8) if train else None
        sums = np.zeros((2, c))
        for imgs, cols in slices:
            y = buf[: (imgs.stop - imgs.start) * h * w]
            blocks = y.reshape(2, 2, -1, h // 2, w // 2, c)
            if cols is None:
                np.multiply(xw[:, :, imgs], sign, out=blocks)
            else:
                np.matmul(cols, wmat, out=y)
                del cols
            self.pool.forward(blocks, None if index is None else index[imgs], out[imgs])
            if train:
                _add_moments(sums, x[imgs].reshape(-1, c) if conv is None else y)
        if conv is not None:
            sums[0] *= sign
        return out, index, sums

    def _patch_moments(self, x, index, dy):
        """(G = cols^T dz, S = cols^T cols, colsum) over the conv's
        window-major lowering of x, with dz the pool's routing of dy by
        index, one slice at a time into one slice-sized buffer."""
        conv, c = self.conv, self.c
        _, h, w, _ = x.shape
        k = conv.kh * conv.kw * conv.c_in
        g, s, colsum = np.zeros((k, c)), np.zeros((k, k)), np.zeros(k)
        dz_buf = np.empty((conv._slice_images(x) * h * w, c))
        for imgs, cols in conv._im2col_chunks(x, window_major=True):
            dz = dz_buf[: len(cols)]
            self.pool.backward(index[imgs], dy[imgs], dz.reshape(2, 2, -1, h // 2, w // 2, c))
            g += cols.T @ dz
            s += cols.T @ cols
            colsum += cols.sum(axis=0)
            del cols
        return g, s, colsum

    def backward(self, dy):
        x, mean, inv, m, index = self._cache
        self._cache = None
        if self.conv is None:
            # a pool routes dy into dx, which dx's loop below then overwrites;
            # it routes one slice of images at a time, so its mask is a slice's
            dx = np.empty(x.shape)
            dz = dy if self.pool is None else dx
            if self.pool is not None:
                dxw, hw = window_view(dx), x.shape[1] * x.shape[2]
                for rows in self._row_slices(x):
                    imgs = slice(rows.start // hw, rows.stop // hw)
                    self.pool.backward(index[imgs], dy[imgs], dxw[:, :, imgs])
            flat_dz = dz.reshape(-1, self.c)
            dbeta = flat_dz.sum(axis=0)
            sum_dz_x = np.einsum("nc,nc->c", flat_dz, x.reshape(-1, self.c))
        else:
            g, s, colsum = self._patch_moments(x, index, dy)
            wmat = self.conv.w.value.reshape(-1, self.c)
            dbeta = dy.reshape(-1, self.c).sum(axis=0)
            sum_dz_x = np.einsum("kc,kc->c", wmat, g)
        # sum(dz * xhat) = inv * (sum(dz * x) - mean * sum(dz))
        dgamma = inv * (sum_dz_x - mean * dbeta)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # dx = (gamma*inv/m) * (m*dz - dbeta - xhat*dgamma) with xhat = (x-mean)*inv,
        # expanded into per-channel constants
        c1 = self.gamma.value * inv
        k = (c1 / m) * dgamma * inv
        c0 = (c1 / m) * dbeta - k * mean
        if self.conv is not None:
            # the conv's weight gradient cols^T dx, dx = c1*dz - k*x - c0
            gw = c1 * g
            gw -= k * (s @ wmat)
            gw -= np.outer(colsum, c0)
            self.conv.w.grad += gw.reshape(self.conv.w.value.shape)
            return None
        # dx = c1*dz - k*x - c0, a slice at a time: the one temporary, k*x, is
        # a slice, and each value rounds as in the whole-array form. The
        # caller's dy is left as it is; the pool's routed dz is overwritten
        flat_dx, flat_x = dx.reshape(-1, self.c), x.reshape(-1, self.c)
        for rows in self._row_slices(x):
            d = np.multiply(c1, flat_dz[rows], out=flat_dx[rows])
            d -= k * flat_x[rows]
            d -= c0
        return dx


def _add_moments(sums, y):
    """Adds the per-channel sum and sum of squares of y's rows [rows, C] to
    sums[0] and sums[1]. Every BatchNorm2d forms its batch statistics so, a
    slice of rows at a time: a slice's rows are summed by einsum, and then
    the slice sums are added, so a sum's rounding error grows with the
    slice's rows, not with the batch's."""
    sums[0] += np.einsum("nc->c", y)
    sums[1] += np.einsum("nc,nc->c", y, y)


class LeakyReLU(Layer):
    """max(x, alpha*x) with alpha = 0.01; a train forward caches only the
    sign mask x >= 0 (1 byte per value), so the slope at x == 0 is 1. An
    eval forward keeps nothing."""

    alpha = 0.01

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x >= 0 if train else None
        out = self.alpha * x
        return np.maximum(x, out, out=out)

    def backward(self, dy):
        # the slope per value, looked up by the mask: bit-equal to
        # where(mask, dy, alpha*dy), and twice as fast as a masked copy
        dx = np.array([self.alpha, 1.0])[self._mask.view(np.uint8)]
        dx *= dy
        self._mask = None
        return dx


def window_view(x):
    """[2, 2, N, H/2, W/2, ...] view of x [N, H, W, ...]: its 2x2 windows'
    four positions (i, j), (0, 0), (0, 1), (1, 0) and (1, 1), on the first
    two axes. The one place that splits images into windows, whose H and W
    are even: model.CnnTcnConfig.validate requires multiples of 4."""
    n, h, w = x.shape[:3]
    return np.moveaxis(x.reshape(n, h // 2, 2, w // 2, 2, *x.shape[3:]), (2, 4), (0, 1))


# the code of each 2x2 window position (i, j), 2*i + j, in first-index
# (row-major) tie-break order, on the window axes of [2, 2, N, H/2, W/2, C]
_POOL_CODES = np.arange(4, dtype=np.uint8).reshape(2, 2, 1, 1, 1, 1)


class MaxPool2d:
    """2x2 window, stride 2; gradient routes to the first max per window.

    A kernel with no state, over one layout: the windows' four positions as blocks
    [2, 2, N, H/2, W/2, C], with any strides. These are window_view(x) of
    images x [N, H, W, C], or the four contiguous blocks of a pooled
    BatchNorm2d's slice buffer, which forward reads. The caller keeps what
    backward needs: a BatchNorm2d built with pool=True holds a MaxPool2d as
    `self.pool` and keeps the index in its own cache.

    forward returns the maxima [N, H/2, W/2, C], written into `out` when
    given, and writes the uint8 code 2*i + j of each window's first max into
    `index` when given. backward routes dy into `out`, blocks of the input's
    layout, bit for bit where(index == code, dy, 0.0): dy where the maximum
    sat and +0.0 elsewhere, as after a zero fill. Its one temporary is the
    comparison's mask, 1 byte per routed value (measured traced peak on a
    64x32x32x16 input: 1.12-1.18 MB, that 1.05 MB mask and the pass's
    iteration buffers), made in out's memory order: routing conv2's batch-32
    output into the window view of an image-sized buffer took 12.0 ms so,
    and 18.1 ms with the mask in the blocks' order (measured)."""

    def forward(self, blocks, index=None, out=None):
        (x00, x01), (x10, x11) = blocks
        top = np.maximum(x00, x01)
        bottom = np.maximum(x10, x11, out=out)
        if index is not None:
            # the code 2*i + j of the window's first max: strict > picks the
            # bottom row only where it beats the top one, and a row's later
            # cell only where it beats the earlier, so a tie keeps the first
            # index. Arithmetic, not a masked copy: masked copies and where()
            # branch on every value, 2x slower here (measured)
            right = (x01 > x00).view(np.uint8)
            lower = (bottom > top).view(np.uint8)
            np.add(right, lower * (np.uint8(2) + (x11 > x10).view(np.uint8) - right), out=index)
        return np.maximum(top, bottom, out=bottom)

    def backward(self, index, dy, out):
        # where(hit, dy, 0.0) with no branch per value: dy's bits and-ed with
        # -1 (all ones) where hit and 0 elsewhere, written over the bool mask;
        # 1.6-3.5x faster than where(), which mispredicts a branch on about
        # one value in four (measured)
        keep = np.empty_like(out, dtype=np.int8)
        np.equal(index, _POOL_CODES, out=keep.view(bool))
        np.negative(keep, out=keep)
        np.bitwise_and(dy.view(np.int64), keep, out=out.view(np.int64))


class ChannelReduce(Layer):
    """Pointwise (1x1) linear map across channels, the last axis of an input
    of any rank: [..., C] -> [..., C']."""

    def __init__(self, c_in, c_out, rng, name="reduce"):
        self.c_in, self.c_out = c_in, c_out
        self.w = Param(name + ".w", he_uniform(rng, (c_in, c_out), c_in))
        self.b = Param(name + ".b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
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

    def __init__(self, c_in, c_out, kt, dilation=1, *, rng, name="tconv"):
        self.c_in, self.c_out, self.kt, self.dilation = c_in, c_out, kt, int(dilation)
        self.w = Param(name + ".w", he_uniform(rng, (kt, c_in, c_out), kt * c_in))
        self.b = Param(name + ".b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
        n, t, _ = x.shape
        pad = (self.kt - 1) * self.dilation
        xp = np.pad(x, ((0, 0), (pad, 0), (0, 0)))
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
        return dxp[:, pad:, :]


class Dropout(Layer):
    """Inverted dropout: train zeroes with prob p, 0 <= p < 1 (model.DROPOUT),
    and rescales by 1/(1-p); eval is the identity. The caller owns the mask
    stream and may replace `rng`."""

    def __init__(self, p):
        self.p = p
        self.rng = np.random.default_rng(0)
        self._mask = None

    def forward(self, x, train=False):
        if not train:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) >= self.p) / keep
        return x * self._mask

    def backward(self, dy):
        mask, self._mask = self._mask, None
        return dy * mask


class Dense(Layer):
    def __init__(self, d_in, d_out, rng, name="dense"):
        self.w = Param(name + ".w", he_uniform(rng, (d_in, d_out), d_in))
        self.b = Param(name + ".b", np.zeros(d_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False):
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
    dlogits) where dlogits = (probs - onehot)/N. The labels are manifest
    class ids, which io.require_field types in [0, K) where the CLI reads
    them. A label whose probability underflows to 0 (logits that diverge)
    makes the log divide by zero: under the CLI's numpy error rule that
    raises FloatingPointError ("divide by zero encountered in log"), and
    without it the loss is inf."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n = len(logits)
    probs = softmax(logits)
    nll = -np.log(probs[np.arange(n), labels])
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(nll.mean()), probs, dlogits / n


class Adam:
    """Adam with bias correction; eps sits outside the square root."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=5e-4):
        self.param_list = list(params)
        self.lr = lr
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
