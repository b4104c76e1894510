import math
import tracemalloc

import numpy as np
import pytest

from helpers import backward_state, check_layer_gradients, grad_rel_err, numeric_grad
from rfdm.errors import ShapeError
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
)


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

    # The tap-wise input gradient sums each tap's dy @ W[i, j].T, where the
    # reference sums the columns of one GEMM; BLAS orders the c_out products
    # differently in the two, so dx may differ in the last bits. Measured:
    # at most 2.0 eps * max|dx| on these cases and 2.5 eps * max|dx| on
    # conv2/conv3 shapes at up to 512 frames; the bound is 8 eps, a 3x margin.
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
    def test_chunked_batch_equals_slice_loop_reference(self, seed):
        # the frame CNN's conv2 shape: 3 whole slices of b images and a
        # remainder of 1, each slice large enough for the BLAS's general
        # GEMM kernel (a tiny one may get a small-matrix kernel that rounds
        # differently)
        rng = rng_for(seed)
        conv = Conv2d(16, 32, 3, 5, rng=rng)
        b = IM2COL_CHUNK_BYTES // (16 * 16 * 3 * 5 * 16 * 8)
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

    def test_memory_stays_below_a_whole_batch_im2col_matrix(self):
        # 64 frames of the conv2 shape: one whole-batch im2col matrix is
        # 64*16*16 x 240 doubles (31.5 MB). Measured traced peaks: 11.1 MB
        # forward and 10.1 MB backward, against 38.6 and 34.5 MB when the
        # layer built the whole-batch matrix.
        rng = rng_for(3)
        conv = Conv2d(16, 32, 3, 5, rng=rng)
        x = rng.standard_normal((64, 16, 16, 16))
        dy = rng.standard_normal((64, 16, 16, 32))
        whole = 64 * 16 * 16 * 3 * 5 * 16 * 8
        tracemalloc.start()
        try:
            conv.forward(x, train=True)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            conv.backward(dy)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fwd_peak < whole and bwd_peak < whole

    def test_no_input_gradient_keeps_parameter_gradients(self):
        rng = rng_for(5)
        conv = Conv2d(2, 3, 3, 5, rng=rng)
        x = rng.standard_normal((2, 6, 8, 2))
        dy = rng.standard_normal((2, 6, 8, 3))
        conv.forward(x, train=True)
        assert conv.backward(dy).shape == x.shape
        full = conv.w.grad.copy()
        conv.w.zero_grad()
        conv.forward(x, train=True)
        assert conv.backward(dy, need_dx=False) is None
        assert np.array_equal(conv.w.grad, full)

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


class TestBatchNorm:
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

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        bn = BatchNorm2d(3)
        bn.gamma.value[...] = rng_for(seed).uniform(0.5, 1.5, 3)
        x = rng_for(seed + 10).standard_normal((2, 3, 4, 3))
        check_layer_gradients(bn, x, seed=seed)


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
    def test_single_window(self):
        pool = MaxPool2d()
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert pool.forward(x)[0, 0, 0, 0] == 4.0

    def test_tie_break_routes_to_first_index(self):
        pool = MaxPool2d()
        x = np.full((1, 2, 2, 1), 3.0)
        out = pool.forward(x, train=True)
        assert out[0, 0, 0, 0] == 3.0
        dx = pool.backward(np.ones_like(out))
        # all of the gradient goes to window position (0, 0)
        assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_match_scan_reference(self, seed):
        rng = rng_for(seed)
        x = rng.integers(-2, 2, (3, 6, 8, 4)).astype(float)  # most windows tie
        pool = MaxPool2d()
        out = pool.forward(x, train=True)
        best, idx = scan_pool(x)
        assert np.array_equal(out, best)
        dy = rng.standard_normal(out.shape)
        want = np.zeros_like(x)
        for m, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            want[:, i::2, j::2, :] = np.where(idx == m, dy, 0.0)
        assert np.array_equal(pool.backward(dy), want)

    def test_eval_forward_keeps_no_index(self):
        pool = MaxPool2d()
        x = rng_for(1).integers(-2, 2, (2, 4, 6, 3)).astype(float)
        y_train = pool.forward(x, train=True)
        assert pool._cache is not None
        assert np.array_equal(pool.forward(x, train=False), y_train)
        assert pool._cache is None

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            MaxPool2d().forward(np.zeros((1, 3, 4, 1)))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_distinct_values(self, seed):
        pool = MaxPool2d()
        rng = rng_for(seed)
        x = rng.permutation(np.arange(2 * 4 * 6 * 3, dtype=float)).reshape(2, 4, 6, 3)
        check_layer_gradients(pool, x, seed=seed)


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
        (lambda: LeakyReLU(), (2, 4, 6, 3)),
        (lambda: MaxPool2d(), (2, 4, 6, 3)),
        (lambda: ChannelReduce(3, 2, rng=rng_for(0)), (2, 4, 6, 3)),
        (lambda: CausalConv1d(3, 2, kt=3, dilation=2, rng=rng_for(0)), (2, 7, 3)),
        (lambda: Dropout(0.5), (4, 5)),
        (lambda: Dense(5, 3, rng=rng_for(0)), (4, 5)),
    ], ids=["Conv2d", "BatchNorm2d", "LeakyReLU", "MaxPool2d", "ChannelReduce",
            "CausalConv1d", "Dropout", "Dense"])
    def test_backward_leaves_no_state(self, make, shape):
        layer = make()
        x = rng_for(1).standard_normal(shape)
        y = layer.forward(x, train=True)
        assert backward_state(layer)
        layer.backward(rng_for(2).standard_normal(y.shape))
        assert backward_state(layer) == []


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
