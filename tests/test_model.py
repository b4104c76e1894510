import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    ImagePool,
    backward_state,
    grad_rel_err,
    numeric_grad,
    traced_peak,
)
from rfdm.errors import ConfigError, DataError, ShapeError
from rfdm.model import (
    CnnBaseline,
    CnnTcn,
    TCN_DILATIONS,
    TCN_KERNEL,
    CnnTcnConfig,
    TrainConfig,
    build_model,
    evaluate_accuracy,
    layout,
    predict,
    predict_classes,
    train_model,
)
from rfdm.nn import (
    Adam,
    BatchNorm2d,
    ChannelReduce,
    Conv2d,
    Dense,
    LeakyReLU,
    MaxPool2d,
    softmax_xent,
)

TINY = CnnTcnConfig(t_frames=4, height=8, width=8, conv_channels=(2, 3, 4))

# wide enough to memorize the toy data (TINY's 1-channel bottleneck is not):
# conv3's 48 channels reduce to 4
SMALL = CnnTcnConfig(t_frames=4, height=8, width=8, conv_channels=(4, 6, 48))


def tiny_model(seed=0):
    return CnnTcn(TINY, init_seed=seed)


def of_type(layers, *types):
    return [layer for layer in layers if isinstance(layer, types)]


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

    def test_reduction_counts(self):
        # the frame CNN's last width over REDUCE_DIVISOR (12), ceil, at least 1
        assert CnnTcnConfig(conv_channels=(16, 32, 64)).reduced_channels == 6
        assert CnnTcnConfig(conv_channels=(4, 8, 12)).reduced_channels == 1
        assert CnnTcnConfig(conv_channels=(2, 3, 4)).reduced_channels == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CnnTcnConfig(height=30).validate()

    @pytest.mark.parametrize("field, value", [
        ("height", 0), ("conv_channels", (0, 3, 4)), ("width", 0), ("t_frames", 0),
    ])
    def test_sizes_below_one_rejected(self, field, value):
        # a zero width would reach he_uniform as a fan-in of 0
        with pytest.raises(ConfigError, match=">= 1"):
            CnnTcnConfig(**{field: value}).validate()

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
        cfg = CnnTcnConfig(t_frames=1, height=16, width=64)
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

        def temporal_stack(h):
            for blk in m.blocks:
                h = blk.forward(h, train=False)
            return h

        full = temporal_stack(feats)
        for t in range(1, 4):
            trunc = feats.copy()
            trunc[:, t:, :] = 0.0
            out = temporal_stack(trunc)
            assert np.array_equal(out[:, :t, :], full[:, :t, :])

    def test_logits_read_only_the_receptive_field(self):
        # the head reads the last step, which the causal stack sees
        # 1 + (TCN_KERNEL - 1) * sum(TCN_DILATIONS) frames back: 15 of 16
        # frames, so frame 0 never reaches the eval logits
        t_frames = 16
        first = t_frames - (1 + (TCN_KERNEL - 1) * sum(TCN_DILATIONS))
        assert first == 1
        m = CnnTcn(replace(SMALL, t_frames=t_frames))
        rng = np.random.default_rng(9)
        x = rng.random((2, t_frames, 8, 8))
        logits = m.forward(x, train=False)
        for t in range(first + 1):
            moved = x.copy()
            moved[:, t] = rng.random((2, 8, 8))
            changed = np.any(m.forward(moved, train=False) != logits, axis=1)
            assert list(changed) == [t == first] * 2, t

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
        acts = of_type(m.frame + m.head, LeakyReLU) + [b.act for b in m.blocks]
        pooled = [bn for bn in of_type(m.frame, BatchNorm2d) if bn.pool]
        assert len(acts) == 8 and len(pooled) == 2
        assert all(a._mask is not None for a in acts)
        # a pooled BatchNorm2d keeps its pool's index last in its cache
        assert all(bn._cache[-1] is not None for bn in pooled)
        m.forward(x, train=False)
        assert all(a._mask is None for a in acts)
        assert all(bn._cache is None for bn in pooled)

    def test_eval_forward_drops_conv_and_bn_inputs(self):
        m = tiny_model()
        x = np.random.default_rng(4).random((2, 4, 8, 8))
        cached = of_type(m.frame, Conv2d, BatchNorm2d)
        assert len(cached) == 5
        m.forward(x, train=True)
        assert all(layer._cache is not None for layer in cached)
        m.forward(x, train=False)
        assert all(layer._cache is None for layer in cached)

    def test_eval_forward_drops_reduce_tcn_and_head_inputs(self):
        m = tiny_model()
        x = np.random.default_rng(5).random((2, 4, 8, 8))
        convs = [b.conv for b in m.blocks]
        inputs = of_type(m.frame + m.head, ChannelReduce, Dense) \
            + [b.proj for b in m.blocks if b.proj is not None]
        assert len(convs) == 3 and len(inputs) == 5
        m.forward(x, train=True)
        assert all(c._cache is not None for c in convs)
        assert all(layer._x is not None for layer in inputs)
        m.forward(x, train=False)
        assert all(c._cache is None for c in convs)
        assert all(layer._x is None for layer in inputs)


class TestBackwardFreesState:
    @pytest.mark.parametrize("cls", [CnnTcn, CnnBaseline], ids=["cnn-tcn", "cnn"])
    def test_backward_leaves_no_layer_state(self, cls):
        # each layer drops its cache as the backward pass reaches it, so no
        # stale input of a later layer stays alive under an earlier backward
        m = cls(CnnTcnConfig(t_frames=4, height=8, width=8), init_seed=0)
        layers = m.frame + m.head + [layer for b in m.blocks
                                     for layer in (b.conv, b.act, b.drop, b.proj) if layer]
        rng = np.random.default_rng(6)
        _, _, dlogits = softmax_xent(m.forward(rng.random((2, 4, 8, 8)), train=True),
                                     np.array([1, 5]))
        assert all(backward_state(layer) for layer in layers)
        m.backward(dlogits)
        assert [backward_state(layer) for layer in layers] == [[]] * len(layers)


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_model_gradient(self, seed):
        m = tiny_model(seed)
        rng = np.random.default_rng(100 + seed)
        # two sequences, so that the masks drop values at both seeds
        x = rng.random((2, 4, 8, 8))
        labels = np.array([seed % 7, 6 - seed % 7])

        def loss():
            m.reset_rngs(seed)  # the masks of the analytic pass
            return softmax_xent(m.forward(x, train=True), labels)[0]

        for p in m.params():
            p.zero_grad()
        m.reset_rngs(seed)
        logits = m.forward(x, train=True)
        # the temporal blocks' dropout, at DROPOUT, drops some values
        assert not all(b.drop._mask.all() for b in m.blocks)
        _, _, dlogits = softmax_xent(logits, labels)
        m.backward(dlogits)
        worst = 0.0
        for p in m.params():
            worst = max(worst, grad_rel_err(p.grad, numeric_grad(loss, p.value)))
        assert worst <= 1e-4


class TestTrainStepMemory:
    # Measured tracemalloc peaks of this step: 7.9 MB, with 0.5 MiB im2col
    # slices; 8.5 MB, with 2 MiB slices, block 1 lowering window-major and
    # each lowering loop dropping a slice's patch matrix before the next is
    # built; 10.2 MB, with block 1 one
    # layer that runs conv1 a slice at a time and forms its gradients from
    # patch moments (the same with one gamma in three negative); 12.1 MB,
    # inside bn1's backward, with bn1 recomputing conv1's output instead of
    # caching it; 14.4 MB, inside conv3's backward, with bn1 and bn2 pooling
    # their raw input and writing dx over the pool's routed gradient; 14.9 MB with
    # Conv2d padding each 2 MiB batch slice on its own and lowering its data
    # gradient, and BatchNorm2d's backward working a slice at a time;
    # 17.3 MB with Conv2d lowering 2 MiB batch slices of a padded copy of
    # the whole batch and each layer dropping its cache in backward; 30.5 MB
    # with whole-batch im2col matrices and caches kept until the next
    # forward; 65.4 MB when Conv2d cached its im2col matrices, LeakyReLU its
    # input and conv1 formed an input gradient. The bound is the first
    # figure plus a 16% margin (it was 9.9 MB over the 8.5 MB figure, 11.8 MB
    # over the 10.2 MB one, and 14.1 MB over the 12.1 MB one).
    PEAK_BOUND_MB = 9.2

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
        assert traced_peak(step) / 1e6 <= self.PEAK_BOUND_MB

    def test_block1_is_one_layer_that_runs_conv1(self):
        # conv1's output, the step's largest activation, never exists at full
        # size: bn1 runs conv1 and caches the frames; bn2 and bn3 cache the
        # outputs of conv2 and conv3, which stay layers of their own
        m = tiny_model()
        x = np.random.default_rng(6).random((2, 4, 8, 8))
        m.forward(x, train=True)
        bns = of_type(m.frame, BatchNorm2d)
        assert m.frame[0] is bns[0] and [bn.conv is None for bn in bns] == [False, True, True]
        assert [p.name for p in bns[0].params()] == \
            ["frame.conv1.w", "frame.bn1.gamma", "frame.bn1.beta"]
        assert np.array_equal(bns[0]._cache[0], x.reshape(8, 8, 8, 1))
        assert [bn._cache[0].shape for bn in bns[1:]] == [(8, 4, 4, 3), (8, 2, 2, 4)]


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
        for b in m.blocks:
            b.drop.p = 0.0  # so that every epoch's forward is the same
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
        # the error names the gesture of class id 3
        with pytest.raises(DataError, match="^class SwipeDown has no samples"):
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
        last = m.head[-1]
        last.w.value[...] = 0.0
        last.b.value[...] = 0.0
        _, probs = predict(m, np.random.default_rng(2).random((4, 8, 8)))
        assert np.allclose(probs, 1 / 7, atol=1e-12)

    def test_batched_classes_match_single_predictions(self):
        m = tiny_model(11)
        x = np.random.default_rng(3).random((5, 4, 8, 8))
        want = [predict(m, seq)[0] for seq in x]
        assert predict_classes(m, x, batch_size=2).tolist() == want

    @pytest.mark.parametrize("shape", [(3, 4, 8, 8), (1, 4, 8, 8), (8, 8)],
                             ids=["batch", "batch-of-one", "one-frame"])
    def test_anything_but_one_sequence_is_shape_error(self, shape):
        # frame_features refuses it: the one sequence gains a batch axis
        with pytest.raises(ShapeError, match=r"expected \[batch, 4, 8, 8\], got \(1, "):
            predict(tiny_model(12), np.random.default_rng(4).random(shape))


class TestFrameStack:
    def test_frame_convs_have_no_bias(self):
        # each frame conv feeds a train-mode BN, whose batch mean cancels a bias
        names = [p.name for p in CnnTcn(CnnTcnConfig()).params()]
        assert [n for n in names if n.startswith("frame.conv")] == \
            ["frame.conv1.w", "frame.conv2.w", "frame.conv3.w"]


def activation_before_pool(frame):
    """The frame list in conv -> BN -> LeakyReLU -> pool order: each pooled
    BN is replaced by an unpooled BN sharing its parameters and running
    stats, followed by its LeakyReLU and the max-pool as a layer over images
    (ImagePool), and preceded by its conv if it runs one."""
    old = list(frame)
    for i in reversed([i for i, layer in enumerate(frame)
                       if isinstance(layer, BatchNorm2d) and layer.pool]):
        bn = old[i] = BatchNorm2d(frame[i].c, name=frame[i].name)
        bn.gamma, bn.beta = frame[i].gamma, frame[i].beta
        bn.running_mean, bn.running_var = frame[i].running_mean, frame[i].running_var
        old.insert(i + 2, ImagePool())
        if frame[i].conv is not None:
            old.insert(i, frame[i].conv)
    return old


class TestPoolBeforeActivation:
    def test_block_order(self):
        frame = CnnTcn(TINY).frame
        assert [type(layer) for layer in frame] == [BatchNorm2d, LeakyReLU] \
            + [Conv2d, BatchNorm2d, LeakyReLU] * 2 + [ChannelReduce]
        assert [type(bn.pool) for bn in of_type(frame, BatchNorm2d)] == [MaxPool2d] * 2 \
            + [type(None)]

    # Block 1 sums its batch statistics in window-major row order, the
    # reference's BN in spatial order, and forms its gradients from conv1's
    # patch moments, so train-mode logits and every gradient differ at
    # rounding level. Measured over init seeds 0-31, in eps * max|value|:
    # logits at most 43, block 1's gradients 10.6-54.8, later gradients 170
    # (tcn.block0.proj.b, seed 15); seeds 0-2 read at most 9.7, 36.5 and 18.
    TRAIN_BOUND_EPS = 340.0

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_activation_before_pool(self, seed):
        # BN's affine map and LeakyReLU are monotone, so they commute with
        # the max of each window. Block 1 forms its three gradients from
        # conv1's patch moments, the reference from conv1's output
        m = CnnTcn(CnnTcnConfig(t_frames=4, height=16, width=16), init_seed=seed)
        for b in m.blocks:
            b.drop.p = 0.0  # both chains' train forwards see the same temporal stack
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4, 16, 16))
        labels = rng.integers(0, 7, 3)

        def run(frame, train):
            m.frame = frame
            for p in m.params():
                p.zero_grad()
            logits = m.forward(x, train)
            if train:
                m.backward(softmax_xent(logits, labels)[2])
            return logits, [p.grad.copy() for p in m.params()]

        new_frame, old_frame = m.frame, activation_before_pool(m.frame)
        eps = np.finfo(np.float64).eps

        def close(a, b, bound):
            return np.max(np.abs(a - b)) <= bound * eps * np.max(np.abs(b))

        # eval runs first: a train forward moves the BN running stats
        assert np.array_equal(run(new_frame, False)[0], run(old_frame, False)[0])
        new, old = run(new_frame, True), run(old_frame, True)
        assert close(new[0], old[0], self.TRAIN_BOUND_EPS)
        assert all(close(a, b, self.TRAIN_BOUND_EPS) for a, b in zip(new[1], old[1]))


FRAME_LAYOUT = [
    ("frame.conv1.w", (3, 5, 1, 2)), ("frame.bn1.gamma", (2,)), ("frame.bn1.beta", (2,)),
    ("frame.conv2.w", (3, 5, 2, 3)), ("frame.bn2.gamma", (3,)), ("frame.bn2.beta", (3,)),
    ("frame.conv3.w", (3, 5, 3, 4)), ("frame.bn3.gamma", (4,)), ("frame.bn3.beta", (4,)),
    ("frame.reduce.w", (4, 1)), ("frame.reduce.b", (1,)),
]
BUFFER_LAYOUT = [
    ("frame.bn1.running_mean", (2,)), ("frame.bn1.running_var", (2,)),
    ("frame.bn2.running_mean", (3,)), ("frame.bn2.running_var", (3,)),
    ("frame.bn3.running_mean", (4,)), ("frame.bn3.running_var", (4,)),
]


class TestRfnnLayout:
    # An RFNN checkpoint stores params() then buffers() in this order; a
    # reordered layer list would make every older checkpoint unloadable.
    @pytest.mark.parametrize("cls, tail", [
        (CnnTcn, [
            ("tcn.block0.conv.w", (3, 4, 1)), ("tcn.block0.conv.b", (1,)),
            ("tcn.block0.proj.w", (4, 1)), ("tcn.block0.proj.b", (1,)),
            ("tcn.block1.conv.w", (3, 1, 1)), ("tcn.block1.conv.b", (1,)),
            ("tcn.block2.conv.w", (3, 1, 1)), ("tcn.block2.conv.b", (1,)),
            ("head.fc1.w", (1, 48)), ("head.fc1.b", (48,)), ("head.fc2.w", (48, 24)),
            ("head.fc2.b", (24,)), ("head.fc3.w", (24, 7)), ("head.fc3.b", (7,)),
        ]),
        (CnnBaseline, [
            ("head.fc1.w", (4, 24)), ("head.fc1.b", (24,)), ("head.fc2.w", (24, 16)),
            ("head.fc2.b", (16,)), ("head.fc3.w", (16, 7)), ("head.fc3.b", (7,)),
        ]),
    ], ids=["cnn-tcn", "cnn"])
    def test_param_and_buffer_order(self, cls, tail):
        m = cls(TINY)
        assert [(p.name, p.value.shape) for p in m.params()] == FRAME_LAYOUT + tail
        assert [(name, b.shape) for name, b in m.buffers()] == BUFFER_LAYOUT

    @pytest.mark.parametrize("kind", ["cnn-tcn", "cnn"])
    @pytest.mark.parametrize("cfg", [
        TINY, CnnTcnConfig(),
        # one pooled position, so the first temporal block needs no projection
        CnnTcnConfig(t_frames=2, height=4, width=4, conv_channels=(3, 2, 5)),
    ], ids=["tiny", "default", "no-projection"])
    def test_layout_is_the_built_models(self, kind, cfg):
        # io checks a checkpoint's arrays against layout() before it builds
        m = build_model(kind, cfg)
        assert layout(kind, cfg) == [(p.name, p.value.shape) for p in m.params()] \
            + [(name, b.shape) for name, b in m.buffers()]

    def test_layout_rejects_what_build_model_rejects(self):
        with pytest.raises(ConfigError, match=r"unknown model kind 'rnn' \(expected one of "
                                               r"cnn-tcn, cnn\)"):
            layout("rnn", TINY)
        with pytest.raises(ConfigError, match="divisible by 4"):
            layout("cnn", CnnTcnConfig(height=6))


# sha256 of the default model's initial parameters, then buffers, as
# little-endian f64 in checkpoint order, per (kind, init seed); recorded with
# numpy 2.4.6 on x86-64. A change to the default structure or to the init
# streams changes them: re-pin only on purpose.
GOLDEN_INIT_SHA256 = {
    ("cnn-tcn", 0): "a7ab61a1a5dc86b0fd19b0529c5ab541983739d28866238529621f829d0a3e44",
    ("cnn-tcn", 1): "309aa4ead73ec9c68f34ed1cc2b5c8c2df1e7b2e53bc2d7806ec10778cc7e6d1",
    ("cnn", 0): "d22ce2f078f54d902e487de47a4a0b29dab85fc85faaff6b5c76f1d2413a2e93",
    ("cnn", 1): "7dcdcad64277546faaf740de0e49817612528563c33513e4e23ff6868aeb3d38",
}


@pytest.mark.parametrize("kind, seed", GOLDEN_INIT_SHA256)
def test_default_model_init_matches_the_golden_digest(kind, seed):
    m = build_model(kind, CnnTcnConfig(), init_seed=seed)
    digest = hashlib.sha256()
    for a in [p.value for p in m.params()] + [b for _, b in m.buffers()]:
        digest.update(a.astype("<f8").tobytes())
    assert digest.hexdigest() == GOLDEN_INIT_SHA256[kind, seed]


class TestBaseline:
    def test_parameter_count_strictly_less(self):
        cfg = CnnTcnConfig()
        tcn = CnnTcn(cfg, init_seed=0)
        cnn = CnnBaseline(cfg, init_seed=0)
        assert sum(p.value.size for p in cnn.params()) < sum(p.value.size for p in tcn.params())

    def test_baseline_trains_and_predicts(self):
        x, y = make_toy_dataset()
        idx = np.arange(len(y))
        m = CnnBaseline(TINY, init_seed=1)
        res = train_model(m, x, y, idx, idx, TrainConfig(lr=1e-2, epochs=5, batch_size=7, seed=3))
        assert len(res.curve) == 5
        c, probs = predict(m, x[0])
        assert probs.shape == (7,)
