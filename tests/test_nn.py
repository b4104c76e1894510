import math

import numpy as np
import pytest

from helpers import (
    ImagePool,
    backward_state,
    check_layer_gradients,
    grad_rel_err,
    numeric_grad,
    traced_peak,
)
from rfdm.dsp import cube_to_rfdm
from rfdm import nn
from rfdm.errors import ShapeError
from rfdm.gestures import dataset_plan, standard_benchmark_spec, synthesize_sample
from rfdm.nn import (
    IM2COL_CHUNK_BYTES,
    Adam,
    BatchNorm2d,
    CausalConv1d,
    ChannelReduce,
    Conv2d,
    Dense,
    Dropout,
    LeakyReLU,
    MaxPool2d,
    Param,
    softmax_xent,
    window_view,
)
from rfdm.radar import RadarConfig


def rng_for(seed):
    return np.random.default_rng(seed)


def slice_loop_conv(conv, x, dy):
    """Stride-1 "same" Conv2d forward and backward with the im2col matrix
    built by one slice copy per kernel offset, and the input gradient
    scattered back from one column-gradient GEMM: (output, dx, w.grad)."""
    n, h, w, _ = x.shape
    kh, kw, ci = conv.kh, conv.kw, conv.c_in
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))
    cols = np.empty((n, h, w, kh * kw, ci))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i * kw + j, :] = xp[:, i : i + h, j : j + w, :]
    cols = cols.reshape(n * h * w, kh * kw * ci)
    wmat = conv.w.value.reshape(kh * kw * ci, conv.c_out)
    out = (cols @ wmat).reshape(n, h, w, conv.c_out)
    dym = dy.reshape(n * h * w, conv.c_out)
    dw = (cols.T @ dym).reshape(conv.w.value.shape)
    dcols = (dym @ wmat.T).reshape(n, h, w, kh * kw, ci)
    dxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + h, j : j + w, :] += dcols[:, :, :, i * kw + j, :]
    return out, dxp[:, pt : pt + h, pl : pl + w, :], dw


def probe(*shape):
    """A zero-stride array of `shape`: all that a layer's slice sizing reads
    of its input is the shape and the item size."""
    return np.broadcast_to(0.0, shape)


def scan_pool(x):
    """2x2 max-pool by a strict > scan in window order: (output, first-max index)."""
    best = x[:, ::2, ::2, :].copy()
    idx = np.zeros(best.shape, dtype=np.uint8)
    for m, (i, j) in enumerate([(0, 1), (1, 0), (1, 1)], start=1):
        cand = x[:, i::2, j::2, :]
        mask = cand > best
        best[mask] = cand[mask]
        idx[mask] = m
    return best, idx


class TestConv2d:
    def test_identity_kernel(self):
        conv = Conv2d(3, 3, 1, 1, rng=rng_for(0))
        conv.w.value[...] = np.eye(3).reshape(1, 1, 3, 3)
        x = rng_for(1).standard_normal((2, 5, 6, 3))
        assert np.allclose(conv.forward(x), x, atol=1e-15)

    def test_box_sum_valid(self):
        # a 3x3 box sum with "same" padding, checked on the valid (interior)
        # pixels, whose windows hold no padding
        conv = Conv2d(1, 1, 3, 3, rng=rng_for(0))
        conv.w.value[...] = 1.0
        x = np.full((1, 6, 6, 1), 2.5)
        out = conv.forward(x)
        assert out.shape == (1, 6, 6, 1)
        assert np.allclose(out[:, 1:-1, 1:-1], 9 * 2.5, atol=1e-12)

    def test_matches_naive_loops(self):
        # direct 6-loop reference on a random case, over an input zero-padded
        # by hand to "same" geometry: 1 row and 2 columns each side for 3x5
        rng = rng_for(42)
        x = rng.standard_normal((1, 4, 5, 2))
        conv = Conv2d(2, 3, 3, 5, rng=rng)
        out = conv.forward(x)
        assert out.shape == (1, 4, 5, 3)
        xp = np.zeros((1, 6, 9, 2))
        xp[:, 1:5, 2:7, :] = x
        ref = np.zeros_like(out)
        for o in range(3):
            for p in range(4):
                for q in range(5):
                    acc = 0.0
                    for i in range(3):
                        for j in range(5):
                            for c in range(2):
                                acc += xp[0, p + i, q + j, c] * conv.w.value[i, j, c, o]
                    ref[0, p, q, o] = acc
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_same_padding_shape(self):
        conv = Conv2d(1, 4, 3, 5, rng=rng_for(0))
        assert conv.forward(np.zeros((2, 32, 32, 1))).shape == (2, 32, 32, 4)

    def test_channel_mismatch_reports_shapes(self):
        conv = Conv2d(2, 3, 3, 3, rng=rng_for(0))
        with pytest.raises(ShapeError, match="expected"):
            conv.forward(np.zeros((1, 4, 4, 5)))

    # The layer's input gradient is one GEMM per slice over all kh*kw*c_out
    # products of an output pixel (dy lowered against the flipped kernel),
    # where the reference sums c_out products per tap in one GEMM and then
    # adds the taps, so dx may differ in the last bits. Measured: at most
    # 1.2 eps * max|dx| on these cases, 4.5 on the chunked conv2 case below
    # (3 seeds) and 6.5 on conv2 and conv3 at 512 frames (10 seeds each).
    # The bound is 8 eps.
    DX_BOUND_EPS = 8.0

    @pytest.mark.parametrize("c_in", [1, 3])
    def test_equals_slice_loop_reference(self, c_in):
        rng = rng_for(10 + c_in)
        conv = Conv2d(c_in, 4, 3, 5, rng=rng)
        x = rng.standard_normal((2, 7, 9, c_in))
        out = conv.forward(x, train=True)
        dy = rng.standard_normal(out.shape)
        dx = conv.backward(dy)
        ref_out, ref_dx, ref_dw = slice_loop_conv(conv, x, dy)
        assert np.array_equal(out, ref_out) and np.array_equal(conv.w.grad, ref_dw)
        bound = self.DX_BOUND_EPS * np.finfo(np.float64).eps * np.max(np.abs(ref_dx))
        assert np.max(np.abs(dx - ref_dx)) <= bound

    # The chunked weight gradient sums per-slice GEMMs where the reference
    # sums one; measured at most 4.8 eps * max|dw| on this case (3 seeds)
    # and 14 eps * max|dw| on the conv1-conv3 shapes at up to 512 frames.
    # The bound is 32 eps, twice the worst of those.
    DW_BOUND_EPS = 32.0

    @pytest.mark.parametrize("seed", range(3))
    def test_chunked_batch_equals_slice_loop_reference(self, seed, monkeypatch):
        # the frame CNN's conv2 shape: 3 whole slices of b images and a
        # remainder of 1, each slice large enough for the BLAS's general
        # GEMM kernel (a tiny one may get a small-matrix kernel that rounds
        # differently). The model's budget slices conv2 one image at a time,
        # and on smaller maps the data gradient's slices are tiny, so the
        # test runs at a budget of 4 images a slice
        monkeypatch.setattr(nn, "IM2COL_CHUNK_BYTES", 2 << 20)
        rng = rng_for(seed)
        conv = Conv2d(16, 32, 3, 5, rng=rng)
        b = conv._slice_images(probe(1000, 16, 16, 16))
        assert b >= 2
        x = rng.standard_normal((3 * b + 1, 16, 16, 16))
        out = conv.forward(x, train=True)
        dy = rng.standard_normal(out.shape)
        dx = conv.backward(dy)
        ref_out, ref_dx, ref_dw = slice_loop_conv(conv, x, dy)
        eps = np.finfo(np.float64).eps
        assert np.array_equal(out, ref_out)
        assert np.max(np.abs(conv.w.grad - ref_dw)) <= \
            self.DW_BOUND_EPS * eps * np.max(np.abs(ref_dw))
        assert np.max(np.abs(dx - ref_dx)) <= self.DX_BOUND_EPS * eps * np.max(np.abs(ref_dx))

    @pytest.mark.parametrize("c_out", [4, 1])
    def test_chunked_single_channel_equals_slice_loop_reference(self, c_out):
        # conv1's case, one input channel: 2 whole slices and a remainder of
        # 3, the patch matrix built row-major as for any input (block 1's
        # K-major build is tested in TestConvFedBatchNorm)
        rng = rng_for(20 + c_out)
        conv = Conv2d(1, c_out, 3, 5, rng=rng)
        b = conv._slice_images(probe(1000, 16, 16, 1))
        assert b > 3
        x = rng.standard_normal((2 * b + 3, 16, 16, 1))
        _, cols = next(conv._im2col_chunks(x))
        assert cols.shape == (b * 16 * 16, 15) and cols.flags.c_contiguous
        out = conv.forward(x, train=True)
        dy = rng.standard_normal(out.shape)
        dx = conv.backward(dy)
        ref_out, ref_dx, ref_dw = slice_loop_conv(conv, x, dy)
        eps = np.finfo(np.float64).eps
        assert np.array_equal(out, ref_out)
        assert np.max(np.abs(conv.w.grad - ref_dw)) <= \
            self.DW_BOUND_EPS * eps * np.max(np.abs(ref_dw))
        assert np.max(np.abs(dx - ref_dx)) <= self.DX_BOUND_EPS * eps * np.max(np.abs(ref_dx))

    def test_memory_stays_below_a_whole_batch_im2col_matrix(self):
        # 64 frames of the conv2 shape: one whole-batch im2col matrix is
        # 64*16*16 x 240 doubles (31.5 MB). Measured traced peaks: 4.7 MB
        # forward and 3.2 MB backward with 0.5 MiB slices; 8.3 and 6.3 MB with
        # 2 MiB slices, each padded on its own and the data gradient lowered;
        # 11.1 and 10.1 MB with a padded copy of
        # the whole batch and a tap-wise data gradient; 38.6 and 34.5 MB when
        # the layer built the whole-batch matrix.
        rng = rng_for(3)
        conv = Conv2d(16, 32, 3, 5, rng=rng)
        x = rng.standard_normal((64, 16, 16, 16))
        dy = rng.standard_normal((64, 16, 16, 32))
        whole = 64 * 16 * 16 * 3 * 5 * 16 * 8
        assert traced_peak(lambda: conv.forward(x, train=True)) < whole
        assert traced_peak(lambda: conv.backward(dy)) < whole

    def test_eval_forward_keeps_no_cache(self):
        rng = rng_for(6)
        conv = Conv2d(2, 3, 3, 5, rng=rng)
        x = rng.standard_normal((2, 4, 6, 2))
        y_train = conv.forward(x, train=True)
        assert conv._cache is not None
        assert np.array_equal(conv.forward(x, train=False), y_train)
        assert conv._cache is None

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        rng = rng_for(seed)
        conv = Conv2d(2, 3, 3, 3, rng=rng)
        x = rng.standard_normal((2, 5, 6, 2))
        check_layer_gradients(conv, x, seed=seed)

    def test_gradcheck_unit_kernel(self):
        rng = rng_for(11)
        conv = Conv2d(2, 3, 1, 1, rng=rng)
        x = rng.standard_normal((2, 5, 6, 2))
        check_layer_gradients(conv, x, seed=1)

    @pytest.mark.parametrize("kh, kw", [(2, 4), (1, 2), (4, 1)])
    def test_even_kernel_rejected(self, kh, kw):
        # "same" padding of an even kernel puts one more row or column on one
        # side than on the other, which the data gradient's lowering does not
        # mirror
        with pytest.raises(ShapeError, match="odd"):
            Conv2d(2, 3, kh, kw, rng=rng_for(0))


class TestBatchNorm:
    def test_conv_without_pool_is_refused(self):
        # only the pooled forward runs the conv: without a pool the layer
        # would batch-normalize its input and never convolve it
        with pytest.raises(ShapeError, match="^BatchNorm2d with a conv needs pool=True$"):
            BatchNorm2d(16, conv=Conv2d(1, 16, 3, 5, rng=rng_for(0)))

    def test_normalizes_in_train_mode(self):
        bn = BatchNorm2d(3)
        # input variance well above eps so the normalized variance hits 1e-6
        x = rng_for(0).standard_normal((4, 5, 5, 3)) * 8.0 + 1.5
        y = bn.forward(x, train=True)
        assert np.max(np.abs(y.mean(axis=(0, 1, 2)))) < 1e-10
        assert np.max(np.abs(y.var(axis=(0, 1, 2)) - 1.0)) < 1e-6

    def test_constant_channel_outputs_beta(self):
        bn = BatchNorm2d(2)
        bn.beta.value[...] = [0.7, -0.3]
        x = np.full((2, 3, 3, 2), 5.0)
        y = bn.forward(x, train=True)
        assert np.allclose(y[..., 0], 0.7) and np.allclose(y[..., 1], -0.3)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        x = rng_for(1).standard_normal((8, 4, 4, 2)) + 2.0
        for _ in range(60):
            bn.forward(x, train=True)
        y = bn.forward(x, train=False)
        assert np.max(np.abs(y.mean(axis=(0, 1, 2)))) < 0.05

    def test_eval_forward_keeps_no_cache(self):
        bn = BatchNorm2d(3)
        x = rng_for(2).standard_normal((2, 3, 4, 3))
        bn.forward(x, train=True)
        assert bn._cache is not None
        bn.forward(x, train=False)
        assert bn._cache is None

    # A conv bias in front of a train-mode BN is a per-channel constant that
    # the batch mean cancels, which is why the frame convs have none. The
    # deleted biases grew to 1e-9..3e-8 on unit-scale activations; shifts up
    # to 0.1 std measured at most 4.7 eps * max here. Larger shifts lose more:
    # the one-pass variance E[x^2] - mean^2 cancels (23 eps at 1 std).
    SHIFT_BOUND_EPS = 8.0

    @pytest.mark.parametrize("scale", [1e-8, 0.1])
    @pytest.mark.parametrize("seed", range(3))
    def test_per_channel_shift_cancels_in_train_mode(self, seed, scale):
        rng = rng_for(seed)
        bn = BatchNorm2d(4)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 4)
        bn.beta.value[...] = rng.standard_normal(4)
        x = rng.standard_normal((4, 6, 8, 4))
        dy = rng.standard_normal(x.shape)
        y, dx = bn.forward(x, train=True), bn.backward(dy)
        y_shift = bn.forward(x + scale * rng.standard_normal(4), train=True)
        dx_shift = bn.backward(dy)
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(y_shift - y)) <= self.SHIFT_BOUND_EPS * eps * np.max(np.abs(y))
        assert np.max(np.abs(dx_shift - dx)) <= self.SHIFT_BOUND_EPS * eps * np.max(np.abs(dx))

    def test_sliced_backward_equals_whole_array_formula(self):
        # 3 whole slices of b images and a remainder of 1, against the
        # whole-array form dx = c1*dy; dx -= k*x; dx -= c0
        rng = rng_for(4)
        bn = BatchNorm2d(16)
        b = bn._slice_images(probe(1000, 32, 32, 16))
        assert b >= 2
        x = rng.standard_normal((3 * b + 1, 32, 32, 16)) * 3.0 + 0.5
        dy = rng.standard_normal(x.shape)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 16)
        bn.forward(x, train=True)
        _, mean, inv, m, _ = bn._cache
        dx = bn.backward(dy)
        flat_x, flat_dy = x.reshape(-1, 16), dy.reshape(-1, 16)
        dbeta = flat_dy.sum(axis=0)
        dgamma = inv * (np.einsum("nc,nc->c", flat_dy, flat_x) - mean * dbeta)
        c1 = bn.gamma.value * inv
        k = (c1 / m) * dgamma * inv
        c0 = (c1 / m) * dbeta - k * mean
        want = c1 * dy
        want -= k * x
        want -= c0
        assert np.array_equal(dx, want)
        assert np.array_equal(bn.gamma.grad, dgamma) and np.array_equal(bn.beta.grad, dbeta)

    def test_backward_memory_is_the_gradient_and_one_slice(self):
        # 64 images of conv1's output shape, 8.4 MB per array; x and dy exist
        # before tracing starts. Measured traced peak of backward: 9.0 MB
        # (dx and a 0.5 MB slice of k*x; 10.6 MB with a 2.1 MB slice), against
        # 16.8 MB (dx and a whole-size k*x) for the whole-array form
        rng = rng_for(5)
        x = rng.standard_normal((64, 32, 32, 16))
        dy = rng.standard_normal(x.shape)
        bn = BatchNorm2d(16)
        bn.forward(x, train=True)
        assert traced_peak(lambda: bn.backward(dy)) <= x.nbytes + 2 * IM2COL_CHUNK_BYTES

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        bn = BatchNorm2d(3)
        bn.gamma.value[...] = rng_for(seed).uniform(0.5, 1.5, 3)
        x = rng_for(seed + 10).standard_normal((2, 3, 4, 3))
        check_layer_gradients(bn, x, seed=seed)


def pooled_bn(gamma, beta=0.0):
    bn = BatchNorm2d(len(gamma), pool=True)
    bn.gamma.value[...] = gamma
    bn.beta.value[...] = beta
    return bn


def unfused(bn):
    """An unpooled BatchNorm2d with bn's gamma and beta, and the max-pool as
    a layer over images: the composition that bn computes."""
    twin = BatchNorm2d(bn.c)
    twin.gamma.value[...] = bn.gamma.value
    twin.beta.value[...] = bn.beta.value
    return twin, ImagePool()


def spaced_values(rng, shape, step=0.37):
    """Distinct values `step` apart in random order, centred on 0."""
    n = math.prod(shape)
    return (rng.permutation(n).reshape(shape) - n / 2) * step


class TestPooledBatchNorm:
    # mixed signs, so the sign-flipped pooling runs on channels 1 and 3
    GAMMA = (0.8, -1.3, 0.5, -0.2)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_batchnorm_then_maxpool(self, seed):
        # inputs 0.37 apart, so no two BN outputs of a window round to one
        # double: outputs, gradients and running stats are bit-equal
        rng = rng_for(seed)
        bn = pooled_bn(self.GAMMA, rng.standard_normal(4))
        twin, pool = unfused(bn)
        for _ in range(2):  # the second train step starts from moved running stats
            x = spaced_values(rng, (3, 6, 8, 4))
            dy = rng.standard_normal((3, 3, 4, 4))
            assert np.array_equal(bn.forward(x, train=True),
                                  pool.forward(twin.forward(x, train=True), train=True))
            assert np.array_equal(bn.backward(dy), twin.backward(pool.backward(dy)))
        for a, b in zip(bn.params(), twin.params()):
            assert np.array_equal(a.grad, b.grad)
        for (_, a), (_, b) in zip(bn.buffers(), twin.buffers()):
            assert np.array_equal(a, b)
        x = spaced_values(rng, (2, 4, 6, 4))
        assert np.array_equal(bn.forward(x), pool.forward(twin.forward(x)))

    def test_near_tie_routes_to_the_larger_input(self):
        # a window's two largest inputs one ulp apart, first the smaller: with
        # beta = 1000 their BN outputs round to one double, so the unfused
        # pool routes to the first of the tied outputs, the pooled BN to the
        # larger input. The outputs are still equal.
        x = spaced_values(rng_for(7), (2, 4, 4, 1))
        x[0, 0, 0, 0] = x.max() + 1.0
        x[0, 0, 1, 0] = np.nextafter(x[0, 0, 0, 0], np.inf)
        bn = pooled_bn((0.9,), 1000.0)
        twin, pool = unfused(bn)
        z = twin.forward(x, train=True)
        assert z[0, 0, 0, 0] == z[0, 0, 1, 0]
        assert np.array_equal(bn.forward(x, train=True), pool.forward(z, train=True))
        assert bn._cache[-1][0, 0, 0, 0] == 1 and pool.index[0, 0, 0, 0] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        bn = pooled_bn((0.8, -1.2, 0.6), rng_for(seed).standard_normal(3))
        check_layer_gradients(bn, spaced_values(rng_for(seed + 10), (2, 4, 6, 3), 0.1),
                              seed=seed)

    # 64 images of conv1's output shape: 8.4 MB per input-sized array, 2.1 MB
    # per pooled one; x and dy exist before tracing starts.

    def test_train_forward_makes_no_input_sized_array(self):
        # Measured traced peak: 3.1 MB (the pool's quarter-size maxima, the
        # index, one 0.5 MiB slice buffer holding a slice's signed windows,
        # and the pool's temporaries over that slice) with every gamma >= 0,
        # and the same with one in three < 0; 5.5 MB when the pool ran once
        # over the window_view of the whole of x, whose channels with a
        # negative gamma were negated in place around the pool, as its
        # quarter-size row maximum and uint8 temporaries spanned the batch;
        # 5.2 MB with that and the index made last, from its temporaries;
        # 6.6 MB when the pool made both row maxima as temporaries; the
        # unfused BN -> MaxPool2d peaks at 14.9 MB, as did a sign-flipped
        # copy of x.
        rng = rng_for(5)
        x = rng.standard_normal((64, 32, 32, 16))
        kept = x.copy()
        for signs in ((1.0,), (1.0, -1.0, 1.0)):
            bn = pooled_bn(rng.uniform(0.5, 1.5, 16) * np.resize(signs, 16))
            twin, pool = unfused(bn)
            out = []
            assert traced_peak(lambda: out.append(bn.forward(x, train=True))) < x.nbytes
            assert np.array_equal(x, kept)
            assert np.array_equal(out[0], pool.forward(twin.forward(x, train=True)))

    def test_backward_peaks_at_one_input_sized_array_and_a_slice(self):
        # Measured traced peak: 9.57 MB, the routed gradient that dx
        # overwrites and, while the pool routes, its byte-per-value mask
        # (1.0 MB) and iteration buffers, as in TestMaxPool; the dx loop's
        # slice of k*x (0.5 MB) peaks below that. 10.6 MB with 2 MiB slices
        # of k*x; 10.8 MB when the pool made a dy-sized where() temporary per
        # window position; the unfused composition, which routes dy into one
        # array and writes dx into another, peaks at 18.9 MB.
        rng = rng_for(5)
        x = rng.standard_normal((64, 32, 32, 16))
        dy = rng.standard_normal((64, 16, 16, 16))
        bn = pooled_bn(rng.uniform(0.5, 1.5, 16))
        bn.forward(x, train=True)
        routing = x.size + (256 << 10)
        assert traced_peak(lambda: bn.backward(dy)) <= \
            x.nbytes + max(routing, 2 * IM2COL_CHUNK_BYTES)


def benchmark_frames(n_scenes):
    """[16 * n_scenes, 32, 32, 1] RFDM frames of the benchmark's chain: the
    first scenes of the standard spec, preprocessed without MTI."""
    spec = standard_benchmark_spec(instances=1)
    radar = RadarConfig()
    return np.concatenate([cube_to_rfdm(synthesize_sample(spec, row, radar), False, 32, 32).frames
                           for row in dataset_plan(spec, 1)[:n_scenes]])[..., np.newaxis]


def block1_longdouble_grads(batches, dys, w, gamma, beta):
    """np.longdouble gradients (w, gamma, beta) of block 1, a "same" conv
    with weight w [kh, kw, 1, C], train-mode BatchNorm2d (biased batch
    statistics, eps 1e-5) and the 2x2 max-pool, routing each window's
    gradient to its first max, summed over the (batch, dy) pairs."""
    ld = np.longdouble
    kh, kw, _, c = w.shape
    wmat, gamma, beta = w.reshape(kh * kw, c).astype(ld), gamma.astype(ld), beta.astype(ld)
    grads = [np.zeros((kh * kw, c), ld), np.zeros(c, ld), np.zeros(c, ld)]
    for x, dy in zip(batches, dys):
        n, h, wd, _ = x.shape
        xp = np.pad(x[..., 0].astype(ld), ((0, 0), (kh // 2,) * 2, (kw // 2,) * 2))
        cols = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols = cols.reshape(-1, kh * kw)
        y = cols @ wmat
        mean = y.mean(axis=0)
        inv_std = 1 / np.sqrt(np.square(y - mean).mean(axis=0) + ld(BatchNorm2d.eps))
        xhat = (y - mean) * inv_std
        # [n, h/2, w/2, C, 4] windows in window order (0, 0), (0, 1), (1, 0), (1, 1)
        windows = (gamma * xhat + beta).reshape(n, h // 2, 2, wd // 2, 2, c) \
            .transpose(0, 1, 3, 5, 2, 4).reshape(n, h // 2, wd // 2, c, 4)
        first = windows.argmax(axis=-1)[..., np.newaxis] == np.arange(4)
        dz = (first * dy[..., np.newaxis]).reshape(n, h // 2, wd // 2, c, 2, 2) \
            .transpose(0, 1, 4, 2, 5, 3).reshape(-1, c)
        dxhat = dz * gamma
        dy_conv = inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        grads[0] += cols.T @ dy_conv
        grads[1] += (dz * xhat).sum(axis=0)
        grads[2] += dz.sum(axis=0)
    grads[0] = grads[0].reshape(w.shape)
    return grads


class TestConvFedBatchNorm:
    """BatchNorm2d(pool=True, conv=conv) is the whole conv -> BN -> pool
    block, and no pass makes the conv output at full size. Its reference is
    the cached-input path: Conv2d.forward, a pooled BatchNorm2d without a
    conv, then Conv2d.backward."""

    def block(self, rng, c=16, weights=None):
        """(block, reference conv, reference BN) with equal weights, one
        gamma in three negative."""
        conv = Conv2d(1, c, 3, 5, rng=rng)
        if weights is not None:
            conv.w.value[...] = weights
        ref_conv = Conv2d(1, c, 3, 5, rng=rng)
        ref_conv.w.value[...] = conv.w.value
        gamma = rng.uniform(0.5, 1.5, c) * np.where(np.arange(c) % 3 == 1, -1.0, 1.0)
        beta = rng.standard_normal(c)
        bn = BatchNorm2d(c, pool=True, conv=conv)
        bn.gamma.value[...], bn.beta.value[...] = gamma, beta
        return bn, ref_conv, pooled_bn(gamma, beta)

    @staticmethod
    def frames_per_batch(most, h, w):
        """Frames per train batch: `most`, or one fewer where the block's
        slice size divides it, so that a batch is 2 or more whole slices and
        a remainder."""
        b = Conv2d(1, 16, 3, 5, rng=rng_for(0))._slice_images(probe(most, h, w, 1))
        n = most - (most % b == 0)
        assert n // b >= 2 and n % b
        return n

    def batches(self, kind, rng):
        """Two train batches of frames, each 2 or more whole block slices and
        a remainder, and the conv weights (None: He-uniform) for `kind`."""
        if kind == "maps":
            frames = benchmark_frames(6)
            n = self.frames_per_batch(48, 32, 32)
            return [frames[:n], frames[n : 2 * n]], None
        if kind == "shifted":
            # one sign per channel and at least 0.2 of He's limit, so that
            # each channel's conv output sits >= 3 std from zero
            weights = rng.uniform(0.2, 1.0, (3, 5, 1, 16)) * math.sqrt(6 / 15) \
                * np.where(np.arange(16) % 2, -1.0, 1.0)
            n = self.frames_per_batch(40, 32, 32)
            return [rng.standard_normal((n, 32, 32, 1)) + 10.0 for _ in range(2)], weights
        n = self.frames_per_batch(40, 16, 16)
        if kind == "ties":
            # small-integer inputs and weights make the conv outputs small
            # integers, so many pool windows hold equal maxima
            return ([rng.integers(-1, 2, (n, 16, 16, 1)).astype(float) for _ in range(2)],
                    rng.integers(-2, 3, (3, 5, 1, 16)))
        return [rng.standard_normal((n, 16, 16, 1)) for _ in range(2)], None

    # The block sums its statistics over its window-major slices, the
    # cached-input path's BN over its own slices in spatial row order, so a
    # train forward's values and running stats differ at rounding level:
    # values in eps * max|value|, the running mean in eps * max(running
    # std), the running variance in eps * max(running var). Measured over 32
    # draws (rng seeds 0-31) of each case, both train steps: at most 7.1 and
    # 4.1 ("distinct"), 0 ("ties": small integers sum exactly), 5.2 and 0.6
    # ("maps"), 447 and 557 ("shifted", whose one-pass variance cancels);
    # the test's own draw reads 4.8 and 3.2, 0, 2.3 and 0.1, 216 and 235.
    TRAIN_BOUND_EPS = {"distinct": 16.0, "ties": 0.0, "maps": 16.0, "shifted": 1200.0}

    # Each path's conv weight, gamma and beta gradients against
    # block1_longdouble_grads, in eps * max|reference|, the largest over the
    # three and both paths. Measured over the same 32 draws: 24.6
    # ("distinct"), 21.7 ("ties"), 46.0 ("maps") and 612 ("shifted"), the
    # cached-input path's the larger in each (the block's: 6.4, 6.1, 17.3
    # and 535); the test's own draw reads 10.0, 8.0, 22.6 and 166. The
    # bounds are about twice the largest. The "shifted" figures come from
    # the one-pass variance's cancellation (ROADMAP item 13); there the two
    # paths differ from each other by 162-648, as each path's statistics
    # round on their own.
    GRAD_BOUND_EPS = {"distinct": 50.0, "ties": 50.0, "maps": 100.0, "shifted": 1250.0}

    @pytest.mark.parametrize("kind", ["distinct", "ties", "maps", "shifted"])
    def test_equals_the_cached_input_path(self, kind):
        # pool indices bit-equal over two train steps (the second from moved
        # running stats), and an eval forward bit-equal from equal running
        # stats; train-mode values and running stats within TRAIN_BOUND_EPS,
        # and each path's gradients within GRAD_BOUND_EPS of an
        # extended-precision reference
        rng = rng_for(30)
        batches, weights = self.batches(kind, rng)
        bn, ref_conv, ref = self.block(rng, weights=weights)
        start = [p.value.copy() for p in bn.params()]
        eps = np.finfo(np.float64).eps
        bound = self.TRAIN_BOUND_EPS[kind] * eps
        dys = []
        for x in batches:
            y = ref_conv.forward(x, train=True)
            if kind == "shifted":
                assert np.min(np.abs(y.mean(axis=(0, 1, 2))) / y.std(axis=(0, 1, 2))) >= 3
            want = ref.forward(y, train=True)
            assert np.max(np.abs(bn.forward(x, train=True) - want)) <= bound * np.max(np.abs(want))
            assert np.array_equal(bn._cache[-1], ref._cache[-1])
            dys.append(rng.standard_normal(want.shape))
            assert bn.backward(dys[-1]) is None and backward_state(bn) == []
            ref_conv.backward(ref.backward(dys[-1]))
        # the reference needs a wider mantissa than float64 (64 bits on x86-64)
        if np.finfo(np.longdouble).nmant >= 63:
            grads = block1_longdouble_grads(batches, dys, *start)
            for path in (bn.params(), ref_conv.params() + ref.params()):
                for p, g in zip(path, grads):
                    assert np.max(np.abs(p.grad - g)) <= \
                        self.GRAD_BOUND_EPS[kind] * eps * np.max(np.abs(g)), p.name
        (_, mean), (_, var) = bn.buffers()
        (_, want_mean), (_, want_var) = ref.buffers()
        assert np.max(np.abs(mean - want_mean)) <= bound * np.max(np.sqrt(want_var))
        assert np.max(np.abs(var - want_var)) <= bound * np.max(want_var)
        mean[...], var[...] = want_mean, want_var
        x = batches[0][:3]
        assert np.array_equal(bn.forward(x), ref.forward(ref_conv.forward(x)))
        assert bn._cache is None

    def test_window_major_slices_equal_the_conv_output(self):
        # 2 whole slices of the block's size and a remainder of 3: each
        # slice's patch matrix is built K-major (a column-major view), and its
        # GEMM output, viewed as [2, 2, m, H/2, W/2, C], is the window view of
        # Conv2d.forward's output bit for bit
        rng = rng_for(8)
        conv = Conv2d(1, 16, 3, 5, rng=rng)
        b = conv._slice_images(probe(1000, 16, 16, 1))
        assert b > 3
        x = rng.standard_normal((2 * b + 3, 16, 16, 1))
        want = conv.forward(x)
        wmat = conv.w.value.reshape(-1, 16)
        sizes = []
        for imgs, cols in conv._im2col_chunks(x, window_major=True):
            m = imgs.stop - imgs.start
            assert cols.shape == (m * 256, 15) and cols.flags.f_contiguous
            got = (cols @ wmat).reshape(2, 2, m, 8, 8, 16)
            assert np.array_equal(got, window_view(want[imgs]))
            sizes.append(m)
        assert sizes == [b, b, 3]

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        rng = rng_for(seed)
        bn, _, _ = self.block(rng, c=3)
        check_layer_gradients(bn, rng.standard_normal((2, 4, 6, 1)), seed=seed)

    # 128 frames of conv1's shape, whose output would take 16.8 MB

    def test_train_forward_keeps_no_input_sized_array(self):
        # Measured traced peak: 5.8 MB, the pooled 4.2 MB output, the pool
        # indices, and a slice's patch matrix and window-major GEMM output
        # (0.5 MiB slices); 6.3 MB with a copy of each slice's output in
        # spatial row order; 11.5 MB with that copy and 2 MiB slices; 13.6 MB
        # when the loop held a slice's patch matrix while the next was built,
        # and 11.4 MB with that and the spatial-order lowering, which needed
        # no copy
        rng = rng_for(6)
        bn, _, _ = self.block(rng)
        x = rng.random((128, 32, 32, 1))
        conv_output_bytes = 128 * 32 * 32 * 16 * 8
        assert traced_peak(lambda: bn.forward(x, train=True)) < conv_output_bytes
        held = [a for a in bn._cache if isinstance(a, np.ndarray)]
        assert max(a.nbytes for a in held) <= conv_output_bytes // 8

    def test_backward_makes_no_conv_output_sized_array(self):
        # Measured traced peak: 1.2 MB, a slice's patch matrix and routed dz
        # (0.5 MiB slices); 4.8 MB with 2 MiB slices; 7.0 MB when the loop held them while the next slice was built, and
        # 6.6 MB with that and a dz buffer reused across slices
        rng = rng_for(6)
        bn, _, _ = self.block(rng)
        bn.forward(rng.random((128, 32, 32, 1)), train=True)
        dy = rng.standard_normal((128, 16, 16, 16))
        assert traced_peak(lambda: bn.backward(dy)) < 128 * 32 * 32 * 16 * 8


class TestPooledSliceLoop:
    """Both pooled BatchNorm2d modes run one slice loop: each slice's four
    window positions, signed per channel, fill one slice buffer, which the
    pool reads. Each case runs 2 or more whole slices and a short last one,
    with gamma of mixed signs."""

    def test_pooled_bn_equals_the_unfused_twin(self):
        # bn2's input shape at 16x16 maps, 8 images a slice; inputs 0.37
        # apart, so no two BN outputs of a window round to one double:
        # outputs, pool indices, gradients and running stats are bit-equal
        # over two train steps (the second from moved running stats), and
        # an eval forward after them
        rng = rng_for(40)
        bn = pooled_bn(rng.uniform(0.5, 1.5, 32) * np.resize((1.0, -1.0, 1.0), 32),
                       rng.standard_normal(32))
        twin, pool = unfused(bn)
        per_slice = bn._slice_images(probe(19, 16, 16, 32))
        assert 19 // per_slice == 2 and 19 % per_slice
        for _ in range(2):
            x = spaced_values(rng, (19, 16, 16, 32))
            dy = rng.standard_normal((19, 8, 8, 32))
            assert np.array_equal(bn.forward(x, train=True),
                                  pool.forward(twin.forward(x, train=True), train=True))
            assert np.array_equal(bn._cache[-1], pool.index)
            assert np.array_equal(bn.backward(dy), twin.backward(pool.backward(dy)))
        for a, b in zip(bn.params(), twin.params()):
            assert np.array_equal(a.grad, b.grad)
        for (_, a), (_, b) in zip(bn.buffers(), twin.buffers()):
            assert np.array_equal(a, b)
        x = spaced_values(rng, (11, 16, 16, 32))
        assert np.array_equal(bn.forward(x), pool.forward(twin.forward(x)))

    def test_block1_equals_its_sign_folded_twin(self):
        # A block whose conv weight columns and gamma are negated on the
        # channels where gamma < 0 has every sign +1, the same signed GEMM
        # outputs and so the same pool: its outputs and pool indices are the
        # block's bit for bit, and its running mean and its gradients of
        # those weight columns and gammas are the block's negated, exactly
        rng = rng_for(41)
        bn, _, _ = TestConvFedBatchNorm().block(rng)
        flip = np.sign(bn.gamma.value)
        assert set(flip) == {-1.0, 1.0}
        twin = BatchNorm2d(16, pool=True, conv=Conv2d(1, 16, 3, 5, rng=rng))
        twin.conv.w.value[...] = bn.conv.w.value * flip
        twin.gamma.value[...] = bn.gamma.value * flip
        twin.beta.value[...] = bn.beta.value
        per_slice = bn.conv._slice_images(probe(1, 32, 32, 1))
        n = 2 * per_slice + per_slice // 2
        for _ in range(2):
            x = rng.standard_normal((n, 32, 32, 1))
            dy = rng.standard_normal((n, 16, 16, 16))
            assert np.array_equal(bn.forward(x, train=True), twin.forward(x, train=True))
            assert np.array_equal(bn._cache[-1], twin._cache[-1])
            bn.backward(dy)
            twin.backward(dy)
        signs = (flip, flip, np.ones(16))  # conv weight, gamma, beta
        for mine, its, sign in zip(bn.params(), twin.params(), signs):
            assert np.array_equal(mine.grad, its.grad * sign), mine.name
        assert np.array_equal(bn.running_mean, twin.running_mean * flip)
        assert np.array_equal(bn.running_var, twin.running_var)
        assert np.array_equal(bn.forward(x), twin.forward(x))

    @pytest.mark.parametrize("mode", ["pooled", "conv-fed"])
    def test_forward_only_reads_its_input(self, mode):
        # a read-only input and one gamma negative: a train and an eval
        # forward run and leave the input's bytes as they were
        rng = rng_for(42)
        gamma = (0.8, -1.3, 0.5)
        if mode == "pooled":
            bn, x = pooled_bn(gamma, rng.standard_normal(3)), rng.standard_normal((5, 8, 8, 3))
        else:
            bn, _, _ = TestConvFedBatchNorm().block(rng, c=3)
            bn.gamma.value[...] = gamma
            x = rng.standard_normal((5, 8, 8, 1))
        kept = x.tobytes()
        x.flags.writeable = False
        for train in (True, False):
            bn.forward(x, train=train)
            assert x.tobytes() == kept


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="np.longdouble is no wider than float64 on this platform")
class TestBatchStatisticsAccuracy:
    """Each BatchNorm2d mode's batch mean and variance against np.longdouble
    ones (a 64-bit mantissa on x86-64) of the same float64 values, the conv
    output of TestConvFedBatchNorm's first batch: a conv-fed BN takes the
    frames, a pooled and a plain one that output. With momentum 0 a train
    forward's running stats are its batch statistics."""

    # The mean's largest error over the channels in eps * rms (sqrt(mean^2
    # + var), the scale of the summed values), the variance's in eps * var.
    # Measured over 32 draws (rng seeds 0-31) of each mode:
    #   "maps":    0.6-2.5 and 3.4-9.8; the test's draw 1.0-2.0 and 6.1-8.8
    #   "shifted": 2.6-9.8 and 308-1271; the test's draw 4.2-4.6 and 470-620
    # (conv outputs 3-7 std from zero, whose one-pass variance cancels).
    # Summed over the whole batch, or over block 1's rows in spatial order
    # with a running carry, the same draws read 12.4-45.8 and 48-116 ("maps")
    # and 28.8-81.9 and 3489-8713 ("shifted"): summing a slice of rows at a
    # time bounds the rounding error by the slice's length, not the batch's.
    BOUND_EPS = {"maps": (6.0, 24.0), "shifted": (24.0, 2500.0)}

    @pytest.mark.parametrize("mode", ["conv-fed", "pooled", "plain"])
    @pytest.mark.parametrize("kind", ["maps", "shifted"])
    def test_mean_and_variance_against_longdouble(self, kind, mode):
        cases = TestConvFedBatchNorm()
        rng = rng_for(30)
        batches, weights = cases.batches(kind, rng)
        block, conv, pooled = cases.block(rng, weights=weights)
        x = batches[0]
        y = conv.forward(x)
        layer, data = {"conv-fed": (block, x), "pooled": (pooled, y),
                       "plain": (BatchNorm2d(16), y)}[mode]
        layer.momentum = 0.0
        layer.forward(data, train=True)
        ref = y.reshape(-1, 16).astype(np.longdouble)
        ref_mean = ref.mean(axis=0)
        ref_var = np.square(ref - ref_mean).mean(axis=0)
        eps = np.finfo(np.float64).eps
        mean_bound, var_bound = self.BOUND_EPS[kind]
        assert np.all(np.abs(layer.running_mean - ref_mean)
                      <= mean_bound * eps * np.sqrt(ref_mean * ref_mean + ref_var))
        assert np.all(np.abs(layer.running_var - ref_var) <= var_bound * eps * ref_var)


class TestSliceBudget:
    """A slice loop holds one slice at a time, sized by IM2COL_CHUNK_BYTES:
    the traced peak of each pass on an input of many slices stays within the
    arrays the pass returns or caches plus a stated number of budgets.
    Inputs, dy and the caches a backward consumes exist before tracing
    starts."""

    def peak_and_result(self, fn):
        result = []
        peak = traced_peak(lambda: result.append(fn()))
        return peak, result[0]

    def bound(self, budgets, *kept):
        return sum(a.nbytes for a in kept) + budgets * IM2COL_CHUNK_BYTES

    # Conv2d's slice holds its patch matrix (at most one budget when a slice
    # holds more than one image), the padded slice and, in backward, the
    # slice's weight-gradient product. Measured: 1.06 budgets beside the
    # output in forward, 1.42 beside dx in backward
    CONV_BUDGETS = 1.5

    def test_conv_passes(self):
        # conv2's channels on 8x8 maps, at least 2 images a slice
        rng = rng_for(11)
        conv = Conv2d(16, 32, 3, 5, rng=rng)
        x = rng.standard_normal((13, 8, 8, 16))
        dy = rng.standard_normal((13, 8, 8, 32))
        assert 2 <= conv._slice_images(dy) <= conv._slice_images(x) < len(x) // 2
        peak, out = self.peak_and_result(lambda: conv.forward(x, train=True))
        assert peak <= self.bound(self.CONV_BUDGETS, out)
        peak, dx = self.peak_and_result(lambda: conv.backward(dy))
        assert peak <= self.bound(self.CONV_BUDGETS, dx)

    # block 1's slice holds its patch matrix (15 columns, at most one
    # budget), its GEMM output or dz of 16 columns, and the pool's
    # quarter-size temporaries. Measured: 2.03 budgets beside the output and
    # the pool index in a train forward (3.03 with a spatial-order copy of
    # the GEMM output), 2.28 in backward and 2.02 in an eval forward
    BLOCK1_BUDGETS = 2.5

    def test_block1_passes(self):
        bn, _, _ = TestConvFedBatchNorm().block(rng_for(12))
        x = rng_for(13).random((15, 32, 32, 1))
        assert 2 <= bn.conv._slice_images(x) < len(x) // 2
        peak, out = self.peak_and_result(lambda: bn.forward(x, train=True))
        assert peak <= self.bound(self.BLOCK1_BUDGETS, out, bn._cache[-1])
        dy = rng_for(14).standard_normal(out.shape)
        assert traced_peak(lambda: bn.backward(dy)) <= self.bound(self.BLOCK1_BUDGETS)
        peak, out = self.peak_and_result(lambda: bn.forward(x))
        assert peak <= self.bound(self.BLOCK1_BUDGETS, out)

    # a pooled BatchNorm2d's forward slice holds its slice buffer of signed
    # windows (one budget) and the pool's temporaries over it; its backward
    # routes dy into dx a slice of images at a time, through one
    # byte-per-value mask of the slice, then writes dx a slice of k*x at a
    # time. Measured on bn2's input shape at 16x16 maps (19, 37, 45 and 125
    # images) and on 512 channels at 8x8: 1.38-1.41 budgets beside the
    # output and the pool index in a train forward, 1.26-1.28 in an eval
    # forward and 1.13-1.18 beside dx in backward. A mask of the whole
    # batch, as the backward routed before, held 2.21 budgets beside dx on
    # this test's input (1.95 of them the mask), and the one whole-batch
    # pool forward held 2.19 and 1.66 budgets on 45 images, each growing
    # with the batch
    POOLED_BN_BUDGETS = 1.75

    def test_pooled_bn_passes(self):
        # bn2's input shape at 16x16 maps, 8 images a slice, one gamma in
        # three negative; enough images that a mask of the whole batch would
        # exceed the budgets
        rng = rng_for(15)
        bn = pooled_bn(rng.uniform(0.5, 1.5, 32) * np.resize((1.0, -1.0, 1.0), 32))
        x = rng.standard_normal((125, 16, 16, 32))
        assert 2 <= bn._slice_images(x) < len(x) // 4
        peak, out = self.peak_and_result(lambda: bn.forward(x, train=True))
        assert peak <= self.bound(self.POOLED_BN_BUDGETS, out, bn._cache[-1])
        dy = rng_for(16).standard_normal(out.shape)
        peak, dx = self.peak_and_result(lambda: bn.backward(dy))
        assert peak <= self.bound(self.POOLED_BN_BUDGETS, dx)
        peak, out = self.peak_and_result(lambda: bn.forward(x))
        assert peak <= self.bound(self.POOLED_BN_BUDGETS, out)


class TestLeakyReLU:
    def test_values(self):
        act = LeakyReLU()
        x = np.array([[2.0, -1.0, 0.0]])
        assert np.array_equal(act.forward(x), [[2.0, -0.01, 0.0]])

    def test_gradient_passes_at_zero(self):
        act = LeakyReLU()
        act.forward(np.array([[0.0, -0.0, 1.0, -1.0]]), train=True)
        dx = act.backward(np.array([[2.0, 3.0, 4.0, 5.0]]))
        assert np.array_equal(dx, [[2.0, 3.0, 4.0, 0.01 * 5.0]])

    def test_backward_equals_where_form(self):
        # the slope lookup times dy against where(mask, dy, alpha*dy), bit for
        # bit: x = +-0.0 takes slope 1, and dy = -0.0 keeps its sign
        rng = rng_for(4)
        x = rng.integers(-2, 3, (6, 40)).astype(float)
        x[0, ::2] = -0.0
        dy = rng.standard_normal(x.shape)
        dy[:, ::3] = -0.0
        act = LeakyReLU()
        act.forward(x, train=True)
        want = np.where(x >= 0, dy, act.alpha * dy)
        dx = act.backward(dy)
        assert np.array_equal(dx, want) and np.array_equal(np.signbit(dx), np.signbit(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_away_from_kink(self, seed):
        act = LeakyReLU()
        x = rng_for(seed).standard_normal((3, 7))
        x[np.abs(x) < 1e-3] = 0.5  # keep clear of the kink
        check_layer_gradients(act, x, seed=seed)

    def test_eval_forward_keeps_no_mask(self):
        act = LeakyReLU()
        x = rng_for(0).integers(-2, 3, (4, 9)).astype(float)  # zeros included
        y_train = act.forward(x, train=True)
        assert act._mask is not None
        assert np.array_equal(act.forward(x, train=False), y_train)
        assert act._mask is None


class TestMaxPool:
    """MaxPool2d pools window blocks [2, 2, N, H/2, W/2, C]: ImagePool runs it
    over images through window_view, keeping the index as a pooled
    BatchNorm2d does."""

    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert MaxPool2d().forward(window_view(x))[0, 0, 0, 0] == 4.0

    def test_tie_break_routes_to_first_index(self):
        pool = ImagePool()
        x = np.full((1, 2, 2, 1), 3.0)
        out = pool.forward(x, train=True)
        assert out[0, 0, 0, 0] == 3.0 and pool.index[0, 0, 0, 0] == 0
        dx = pool.backward(np.ones_like(out))
        # all of the gradient goes to window position (0, 0)
        assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_match_scan_reference(self, seed):
        rng = rng_for(seed)
        x = rng.integers(-2, 2, (3, 6, 8, 4)).astype(float)  # most windows tie
        pool = ImagePool()
        out = pool.forward(x, train=True)
        best, idx = scan_pool(x)
        assert np.array_equal(out, best) and np.array_equal(pool.index, idx)
        dy = rng.standard_normal(out.shape)
        want = np.zeros_like(x)
        for m, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            want[:, i::2, j::2, :] = np.where(idx == m, dy, 0.0)
        assert np.array_equal(pool.backward(dy), want)

    def test_backward_equals_zero_fill_and_masked_copies(self):
        # dy holds -0.0 and negatives: the cells a window's maximum did not
        # come from stay +0.0, as after a zero fill
        rng = rng_for(6)
        x = rng.integers(-2, 2, (9, 8, 10, 5)).astype(float)
        pool = ImagePool()
        out = pool.forward(x, train=True)
        idx = pool.index
        dy = rng.standard_normal(out.shape)
        dy[::3] = -0.0
        want = np.zeros(x.shape)
        for m, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            np.copyto(want[:, i::2, j::2, :], dy, where=(idx == m))
        dx = pool.backward(dy)
        assert np.array_equal(dx, want)
        assert np.array_equal(np.signbit(dx), np.signbit(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_window_blocks_equal_spatial_images(self, seed):
        # the same tie-rich images as the window view of [N, H, W, C] and as
        # contiguous window blocks: equal maxima and index, and one index
        # routes dy (-0.0 and negatives included) into contiguous blocks and
        # into the window view of an image-sized buffer with equal bits
        rng = rng_for(seed)
        x = rng.integers(-2, 2, (5, 6, 8, 3)).astype(float)
        blocks = np.ascontiguousarray(window_view(x))
        pool = MaxPool2d()
        index, block_index = np.empty((2, 5, 3, 4, 3), np.uint8)
        out = pool.forward(window_view(x), index)
        assert np.array_equal(pool.forward(blocks, block_index), out)
        assert np.array_equal(block_index, index)
        dy = rng.standard_normal(out.shape)
        dy[::2, 1] = -0.0
        dblocks, dx = np.empty(blocks.shape), np.empty(x.shape)
        pool.backward(index, dy, dblocks)
        pool.backward(index, dy, window_view(dx))
        assert np.ascontiguousarray(window_view(dx)).tobytes() == dblocks.tobytes()

    def test_backward_peaks_at_a_byte_per_value(self):
        # 64 images of conv1's output shape, 8.4 MB per input-sized array;
        # dy, the index and the gradient's buffer exist before tracing
        # starts. Measured traced peak: 1.12 MB into contiguous blocks and
        # 1.18 MB into the window view of an image-sized buffer, the
        # window-position mask (1.05 MB) and the routing pass's iteration
        # buffers
        rng = rng_for(7)
        x = rng.standard_normal((64, 32, 32, 16))
        pool = MaxPool2d()
        index = np.empty((64, 16, 16, 16), np.uint8)
        pool.forward(window_view(x), index)
        dy = rng.standard_normal(index.shape)
        for out in (np.empty((2, 2) + index.shape), window_view(np.empty(x.shape))):
            assert traced_peak(lambda: pool.backward(index, dy, out)) <= x.size + (256 << 10)

    def test_eval_forward_keeps_no_index(self):
        # without an index, forward gives the maxima of one that writes it
        x = window_view(rng_for(1).integers(-2, 2, (2, 4, 6, 3)).astype(float))
        index = np.empty((2, 2, 3, 3), np.uint8)
        assert np.array_equal(MaxPool2d().forward(x), MaxPool2d().forward(x, index))

    def test_holds_no_instance_state(self):
        # the caller keeps the index between the passes
        rng = rng_for(2)
        x = rng.integers(-2, 2, (2, 4, 6, 3)).astype(float)
        pool = MaxPool2d()
        index = np.empty((2, 2, 3, 3), np.uint8)
        y = pool.forward(window_view(x), index)
        pool.backward(index, rng.standard_normal(y.shape), window_view(np.empty(x.shape)))
        assert vars(pool) == {}

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            window_view(np.zeros((1, 3, 4, 1)))
        with pytest.raises(ShapeError, match="even"):
            pooled_bn((1.0,)).forward(np.zeros((2, 4, 5, 1)), train=True)
        bn, _, _ = TestConvFedBatchNorm().block(rng_for(0), c=2)
        with pytest.raises(ShapeError, match="even"):
            bn.forward(np.zeros((2, 3, 4, 1)), train=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_distinct_values(self, seed):
        rng = rng_for(seed)
        x = rng.permutation(np.arange(2 * 4 * 6 * 3, dtype=float)).reshape(2, 4, 6, 3)
        check_layer_gradients(ImagePool(), x, seed=seed)


class TestChannelReduce:
    def test_row_of_ones_sums_channels(self):
        red = ChannelReduce(12, 1, rng=rng_for(0))
        red.w.value[...] = 1.0
        red.b.value[...] = 0.0
        x = rng_for(1).standard_normal((1, 5, 12))
        assert np.allclose(red.forward(x)[..., 0], x.sum(axis=2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        red = ChannelReduce(24, 2, rng=rng_for(seed))
        x = rng_for(seed + 5).standard_normal((1, 10, 24))
        check_layer_gradients(red, x, seed=seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_gradcheck_on_channels_last_images(self, seed):
        # the frame CNN feeds it [N, H, W, C] maps: only the last axis is mapped
        red = ChannelReduce(6, 2, rng=rng_for(seed))
        x = rng_for(seed + 7).standard_normal((2, 3, 4, 6))
        assert np.array_equal(red.forward(x).reshape(2, 12, 2), red.forward(x.reshape(2, 12, 6)))
        check_layer_gradients(red, x, seed=seed)


class TestCausalConv1d:
    def test_pointwise_identity(self):
        conv = CausalConv1d(2, 2, kt=1, rng=rng_for(0))
        conv.w.value[...] = np.eye(2)[None]
        conv.b.value[...] = 0.0
        x = rng_for(1).standard_normal((2, 6, 2))
        assert np.allclose(conv.forward(x), x, atol=1e-15)

    def test_impulse_response_with_dilation(self):
        # kt=2, d=2, taps (a, b): response to delta at t=0 is (b, 0, a, 0, ...)
        conv = CausalConv1d(1, 1, kt=2, dilation=2, rng=rng_for(0))
        a, b = 0.7, -1.3
        conv.w.value[...] = np.array([a, b]).reshape(2, 1, 1)
        conv.b.value[...] = 0.0
        x = np.zeros((1, 6, 1))
        x[0, 0, 0] = 1.0
        y = conv.forward(x)[0, :, 0]
        assert np.allclose(y, [b, 0.0, a, 0.0, 0.0, 0.0], atol=1e-15)

    def test_causality_by_forward_perturbation(self):
        rng = rng_for(2)
        conv = CausalConv1d(3, 4, kt=3, dilation=2, rng=rng)
        x = rng.standard_normal((1, 10, 3))
        base = conv.forward(x)
        for t0 in range(10):
            xp = x.copy()
            xp[0, t0, :] += 1.0
            out = conv.forward(xp)
            if t0 > 0:
                assert np.array_equal(out[0, :t0], base[0, :t0])
            assert not np.allclose(out[0, t0:], base[0, t0:])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        conv = CausalConv1d(2, 3, kt=3, dilation=2, rng=rng_for(seed))
        x = rng_for(seed + 3).standard_normal((2, 7, 2))
        check_layer_gradients(conv, x, seed=seed)


class TestDropout:
    def test_p_zero_and_eval_are_identity(self):
        x = rng_for(0).standard_normal((4, 5))
        assert np.array_equal(Dropout(0.0).forward(x, train=True), x)
        assert np.array_equal(Dropout(0.7).forward(x, train=False), x)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_survivor_statistics(self):
        drop = Dropout(0.5)
        drop.rng = np.random.default_rng(123)
        x = np.ones((200, 200))
        y = drop.forward(x, train=True)
        survivors = y != 0
        assert abs(survivors.mean() - 0.5) < 0.05
        assert np.allclose(y[survivors], 2.0)  # exact 1/(1-p) rescale

    def test_gradient_matches_mask(self):
        drop = Dropout(0.3)
        drop.rng = np.random.default_rng(7)
        x = rng_for(1).standard_normal((6, 6))
        y = drop.forward(x, train=True)
        dy = rng_for(2).standard_normal(y.shape)
        dx = drop.backward(dy)
        mask = y != 0
        assert np.array_equal(dx[~mask], np.zeros((~mask).sum()))
        assert np.allclose(dx[mask], dy[mask] / 0.7)


class TestDense:
    def test_identity(self):
        d = Dense(3, 3, rng=rng_for(0))
        d.w.value[...] = np.eye(3)
        d.b.value[...] = 0.0
        x = rng_for(1).standard_normal((2, 3))
        assert np.allclose(d.forward(x), x, atol=1e-15)

    def test_small_example(self):
        d = Dense(2, 1, rng=rng_for(0))
        d.w.value[...] = [[1.0], [1.0]]
        d.b.value[...] = [0.0]
        assert d.forward(np.array([[2.0, 3.0]]))[0, 0] == 5.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        d = Dense(8, 4, rng=rng_for(seed))
        x = rng_for(seed + 1).standard_normal((3, 8))
        check_layer_gradients(d, x, seed=seed)


class TestBackwardConsumesState:
    @pytest.mark.parametrize("make, shape", [
        (lambda: Conv2d(2, 3, 3, 5, rng=rng_for(0)), (2, 4, 6, 2)),
        (lambda: BatchNorm2d(3), (2, 4, 6, 3)),
        (lambda: pooled_bn((0.8, -1.2, 0.6)), (2, 4, 6, 3)),
        (lambda: LeakyReLU(), (2, 4, 6, 3)),
        (lambda: ChannelReduce(3, 2, rng=rng_for(0)), (2, 4, 6, 3)),
        (lambda: CausalConv1d(3, 2, kt=3, dilation=2, rng=rng_for(0)), (2, 7, 3)),
        (lambda: Dropout(0.5), (4, 5)),
        (lambda: Dense(5, 3, rng=rng_for(0)), (4, 5)),
    ], ids=["Conv2d", "BatchNorm2d", "BatchNorm2d-pool", "LeakyReLU", "ChannelReduce",
            "CausalConv1d", "Dropout", "Dense"])
    def test_backward_leaves_no_state(self, make, shape):
        layer = make()
        x = rng_for(1).standard_normal(shape)
        y = layer.forward(x, train=True)
        assert backward_state(layer)
        layer.backward(rng_for(2).standard_normal(y.shape))
        assert backward_state(layer) == []


class TestWhatTheBenchmarkTracerReads:
    """perfbench/tracer.py wraps forward and backward of these classes by
    name, found in each class's own __dict__, and counts a Conv2d backward's
    FLOPs from the shape of _cache[0] and a forward's from _geometry."""

    WRAPPED = (Conv2d, BatchNorm2d, LeakyReLU, MaxPool2d, ChannelReduce, CausalConv1d,
               Dropout, Dense)

    def test_each_wrapped_class_defines_its_own_passes(self):
        for cls in self.WRAPPED:
            assert "forward" in vars(cls) and "backward" in vars(cls), cls.__name__
        assert "step" in vars(Adam)

    def test_conv_cache_holds_a_zero_stride_matrix_placeholder(self):
        conv = Conv2d(2, 3, 3, 5, rng=rng_for(0))
        conv.forward(rng_for(1).standard_normal((4, 6, 8, 2)), train=True)
        placeholder = conv._cache[0]
        assert placeholder.shape == (4 * 6 * 8, 3 * 5 * 2)
        assert placeholder.strides == (0, 0)
        assert conv._geometry(6, 8)[:2] == (6, 8)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, probs, _ = softmax_xent(np.zeros((1, 7)), np.array([3]))
        assert np.allclose(probs, 1 / 7)
        assert abs(loss - math.log(7)) < 1e-12

    def test_extreme_logits_stable(self):
        loss, probs, _ = softmax_xent(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss) and abs(probs[0, 0] - 1.0) < 1e-12

    def test_gradient_identity_and_fd(self):
        # for a batch of one, dlogits = (probs - onehot) / 1
        rng = rng_for(3)
        logits = rng.standard_normal((1, 5))
        label = np.array([2])
        loss, probs, grad = softmax_xent(logits, label)
        onehot = np.eye(5)[label]
        assert np.allclose(grad, probs - onehot, atol=1e-12)
        num = numeric_grad(lambda: softmax_xent(logits, label)[0], logits)
        assert grad_rel_err(grad, num) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_xent(np.zeros((1, 4)), np.array([7]))

    def test_batch_mean_scaling(self):
        logits = rng_for(4).standard_normal((3, 4))
        labels = np.array([0, 1, 3])
        loss, probs, dl = softmax_xent(logits, labels)
        per = [softmax_xent(logits[i : i + 1], labels[i : i + 1])[0] for i in range(3)]
        assert abs(loss - np.mean(per)) < 1e-12
        assert np.allclose(dl.sum(), 0.0, atol=1e-12)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Param("x", np.array([1.0]))
        opt = Adam([p], lr=5e-4)
        p.grad[...] = 0.3
        opt.step()
        # bias-corrected first step is -lr * g / (|g| + eps)
        assert abs((p.value[0] - 1.0) + 5e-4 * 0.3 / (0.3 + 1e-8)) < 1e-12

    def test_zero_gradient_freezes_params(self):
        p = Param("x", np.array([2.0, -1.0]))
        opt = Adam([p])
        for _ in range(10):
            opt.step()
        assert np.array_equal(p.value, [2.0, -1.0])

    def test_trajectory_determinism(self):
        def run():
            rng = rng_for(9)
            p = Param("x", rng.standard_normal(4))
            opt = Adam([p], lr=1e-2)
            for _ in range(25):
                p.grad[...] = np.sin(p.value) + 0.1 * p.value
                opt.step()
                opt.zero_grad()
            return p.value.tobytes()

        assert run() == run()
