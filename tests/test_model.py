import tracemalloc

import numpy as np
import pytest

from helpers import grad_rel_err, numeric_grad
from rfdm.errors import ConfigError, DataError, ShapeError
from rfdm.model import (
    CnnBaseline,
    CnnTcn,
    CnnTcnConfig,
    TrainConfig,
    build_model,
    evaluate_accuracy,
    param_count,
    predict,
    predict_classes,
    train_model,
)
from rfdm.nn import Adam, softmax_xent

TINY = CnnTcnConfig(
    t_frames=4, height=8, width=8, conv_channels=(2, 3, 4),
    dropout=0.0, head_hidden=(6, 5), baseline_head_hidden=(5, 4),
)

# wide enough to memorize the toy data (TINY's 1-channel bottleneck is not)
SMALL = CnnTcnConfig(
    t_frames=4, height=8, width=8, conv_channels=(4, 6, 8), reduce_divisor=2,
    dropout=0.0, head_hidden=(8, 6), baseline_head_hidden=(6, 5),
)


def tiny_model(seed=0):
    return CnnTcn(TINY, init_seed=seed)


class TestShapes:
    def test_default_frame_feature_length_golden(self):
        # shape algebra: 32x32 -> two pools -> 8x8 = 64 positions x 6 channels
        cfg = CnnTcnConfig()
        assert cfg.reduced_channels == 6
        assert cfg.frame_feature_len == 384
        m = CnnTcn(cfg, init_seed=1)
        feats = m.frame_features(np.zeros((1, 16, 32, 32)))
        assert feats.shape == (1, 16, 384)

    def test_forward_logit_shape(self):
        m = tiny_model()
        x = np.random.default_rng(0).random((3, 4, 8, 8))
        assert m.forward(x).shape == (3, 7)

    def test_input_shape_rejected(self):
        m = tiny_model()
        with pytest.raises(ShapeError, match="expected"):
            m.forward(np.zeros((1, 4, 8, 9)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CnnTcnConfig(height=30).validate()
        with pytest.raises(ConfigError):
            CnnTcnConfig(dilations=(1, 2, 2)).validate()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_model("lstm", TINY)


class TestFrameModel:
    def test_zero_frames_give_identical_features(self):
        m = tiny_model()
        x = np.zeros((2, 4, 8, 8))
        feats = m.frame_features(x, train=False)
        # all frames are the zero frame: every feature vector is the same
        flat = feats.reshape(-1, feats.shape[-1])
        assert np.array_equal(flat, np.broadcast_to(flat[0], flat.shape))

    def test_weight_sharing_across_frames(self):
        m = tiny_model()
        rng = np.random.default_rng(5)
        frame = rng.random((8, 8))
        x = np.zeros((1, 4, 8, 8))
        for t in range(4):
            x[0, t] = frame  # same frame at every time step
        feats = m.frame_features(x, train=False)[0]
        assert np.array_equal(feats, np.broadcast_to(feats[0], feats.shape))
        # parameter buffers appear exactly once in params()
        ids = [id(p.value) for p in m.params()]
        assert len(ids) == len(set(ids))

    def test_conv_locality_outside_receptive_field(self):
        # wide input: receptive field along width is 32 < 64
        cfg = CnnTcnConfig(t_frames=1, height=16, width=64, dropout=0.0)
        m = CnnTcn(cfg, init_seed=2)
        rng = np.random.default_rng(3)
        x1 = rng.random((1, 1, 16, 64))
        x2 = x1.copy()
        x2[0, 0, :, 40:] += rng.random((16, 24))  # far from the left edge
        f1 = m.frame_features(x1, train=False)[0, 0]
        f2 = m.frame_features(x2, train=False)[0, 0]
        c = cfg.reduced_channels
        # feature block of leftmost spatial position (all reduced channels)
        assert np.array_equal(f1[:c], f2[:c])
        assert not np.array_equal(f1, f2)


class TestSequenceModel:
    def test_truncation_changes_only_later_positions(self):
        m = tiny_model()
        rng = np.random.default_rng(7)
        x = rng.random((1, 4, 8, 8))
        feats = m.frame_features(x, train=False)
        full = m.sequence_forward(feats, train=False)
        for t in range(1, 4):
            trunc = feats.copy()
            trunc[:, t:, :] = 0.0
            out = m.sequence_forward(trunc, train=False)
            assert np.array_equal(out[:, :t, :], full[:, :t, :])

    def test_zero_conv_weights_make_logits_input_free(self):
        m = tiny_model()
        for p in m.params():
            if p.name.startswith(("tcn", "head")) and p.name.endswith(".w"):
                p.value[...] = 0.0
        rng = np.random.default_rng(8)
        l1 = m.forward(rng.random((1, 4, 8, 8)), train=False)
        l2 = m.forward(rng.random((1, 4, 8, 8)), train=False)
        assert np.allclose(l1, l2, atol=1e-12)


class TestEvalKeepsNoBackwardCache:
    def test_eval_forward_drops_masks_and_pool_indices(self):
        m = tiny_model()
        x = np.random.default_rng(3).random((2, 4, 8, 8))
        m.forward(x, train=True)
        acts = m.frame.acts + [b.act for b in m.blocks] + m.head.acts
        assert all(a._mask is not None for a in acts)
        assert all(p._cache is not None for p in m.frame.pools)
        m.forward(x, train=False)
        assert all(a._mask is None for a in acts)
        assert all(p._cache is None for p in m.frame.pools)


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_model_gradient(self, seed):
        m = tiny_model(seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.random((1, 4, 8, 8))
        label = seed % 7

        def loss():
            return softmax_xent(m.forward(x, train=True), np.array([label]))[0]

        for p in m.params():
            p.zero_grad()
        logits = m.forward(x, train=True)
        _, _, dlogits = softmax_xent(logits, np.array([label]))
        m.backward(dlogits)
        worst = 0.0
        for p in m.params():
            worst = max(worst, grad_rel_err(p.grad, numeric_grad(loss, p.value)))
        assert worst <= 1e-4


class TestTrainStepMemory:
    # Measured tracemalloc peaks of this step: 34.2 MB with the frame layers
    # caching conv inputs and sign masks, 65.4 MB when Conv2d cached its
    # im2col matrices, LeakyReLU its input and conv1 formed an input gradient.
    # The bound is the first figure plus a 17% margin.
    PEAK_BOUND_MB = 40.0

    def test_peak_of_one_batch2_step(self):
        m = CnnTcn(CnnTcnConfig(), init_seed=0)
        adam = Adam(m.params())
        rng = np.random.default_rng(0)
        x = rng.random((2, 16, 32, 32))
        y = np.array([0, 3])

        def step():
            _, _, dlogits = softmax_xent(m.forward(x, train=True), y)
            adam.zero_grad()
            m.backward(dlogits)
            adam.step()

        step()  # warm-up: Adam moments and lazily built state exist from here on
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 <= self.PEAK_BOUND_MB


def make_toy_dataset(n_per_class=2, seed=0):
    """Tiny separable dataset: class-dependent blob position."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(7):
        for _ in range(n_per_class):
            m = np.zeros((4, 8, 8))
            t = c % 4
            m[t, (c * 5) % 8, (c * 3) % 8] = 1.0
            m += 0.01 * rng.random((4, 8, 8))
            xs.append(m)
            ys.append(c)
    return np.array(xs), np.array(ys)


class TestTraining:
    def test_determinism_bit_exact_curves(self):
        x, y = make_toy_dataset()
        idx = np.arange(len(y))

        def run():
            m = tiny_model(3)
            res = train_model(m, x, y, idx, idx, TrainConfig(epochs=3, batch_size=7, seed=5))
            return res.curve, [p.value.copy() for p in m.params()]

        c1, p1 = run()
        c2, p2 = run()
        assert c1 == c2
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_zero_lr_freezes_parameters_and_loss(self):
        x, y = make_toy_dataset()
        idx = np.arange(len(y))
        m = tiny_model(4)
        before = [p.value.copy() for p in m.params()]
        res = train_model(
            m, x, y, idx, [], TrainConfig(lr=0.0, epochs=3, batch_size=len(y), seed=1)
        )
        assert all(np.array_equal(a, p.value) for a, p in zip(before, m.params()))
        losses = [row[1] for row in res.curve]
        assert losses[0] == losses[1] == losses[2]

    def test_overfit_seven_samples(self):
        x, y = make_toy_dataset(n_per_class=1, seed=2)
        idx = np.arange(7)
        m = CnnTcn(SMALL, init_seed=6)
        train_model(m, x, y, idx, idx,
                    TrainConfig(lr=1e-2, epochs=200, batch_size=7, seed=2))
        assert evaluate_accuracy(m, x, y) == 1.0

    def test_missing_class_raises(self):
        x, y = make_toy_dataset()
        keep = y != 3
        with pytest.raises(DataError, match="3"):
            train_model(tiny_model(), x, y, np.where(keep)[0], [],
                        TrainConfig(epochs=1, seed=0))


class TestPredict:
    def test_repeatable_and_normalized(self):
        m = tiny_model(9)
        seq = np.random.default_rng(1).random((4, 8, 8))
        c1, p1 = predict(m, seq)
        c2, p2 = predict(m, seq)
        assert c1 == c2 and np.array_equal(p1, p2)
        assert abs(p1.sum() - 1.0) < 1e-12
        assert np.all(p1 >= 0) and np.all(p1 <= 1)

    def test_zeroed_head_gives_uniform_probs(self):
        m = tiny_model(10)
        last = m.head.denses[-1]
        last.w.value[...] = 0.0
        last.b.value[...] = 0.0
        _, probs = predict(m, np.random.default_rng(2).random((4, 8, 8)))
        assert np.allclose(probs, 1 / 7, atol=1e-12)

    def test_batched_classes_match_single_predictions(self):
        m = tiny_model(11)
        x = np.random.default_rng(3).random((5, 4, 8, 8))
        want = [predict(m, seq)[0] for seq in x]
        assert predict_classes(m, x, batch_size=2).tolist() == want


class TestBaseline:
    def test_parameter_count_strictly_less(self):
        cfg = CnnTcnConfig()
        tcn = CnnTcn(cfg, init_seed=0)
        cnn = CnnBaseline(cfg, init_seed=0)
        assert param_count(cnn) < param_count(tcn)

    def test_baseline_trains_and_predicts(self):
        x, y = make_toy_dataset()
        idx = np.arange(len(y))
        m = CnnBaseline(TINY, init_seed=1)
        res = train_model(m, x, y, idx, idx, TrainConfig(lr=1e-2, epochs=5, batch_size=7, seed=3))
        assert len(res.curve) == 5
        c, probs = predict(m, x[0])
        assert probs.shape == (7,)
