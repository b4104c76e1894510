"""CNN-TCN classifier: per-frame CNN features, temporal conv stack, dense head.

The model is three layer lists. The frame CNN (conv 16 -> 32 -> 64 with 3x5
kernels, each block conv -> BN with a 2x2 max-pool -> LeakyReLU, the third
block's BN without the pool, then a pointwise map reducing the 64 channels to
ceil(64/12) = 6) is applied with shared weights to every frame of the RFDM
sequence; its convs have no bias, since each feeds a train-mode BN whose
batch mean would cancel one. BatchNorm2d(pool=True) pools the conv output
(negated on channels whose BN scale is negative, in a slice-sized copy:
no layer writes its input) with the MaxPool2d kernel, which holds no state
(BN keeps the window index in its own cache), before its per-channel
affine map, and the pool comes before the activation, so BN's affine map
and LeakyReLU run on a quarter of the cells and no full-size BN output
exists. Both maps are monotone, and so is their
rounding, so this gives the outputs and gradients of the usual
conv -> BN -> LeakyReLU -> pool order bit for bit, but for a 2x2 window
holding two distinct values that one of the maps rounds to one double (two
conv outputs whose BN outputs tie, or two negative BN outputs whose 0.01x
ties): there the max-pool gradient goes to the larger input, not to the
first of the tied activations. The reduced maps are flattened into one
feature vector per frame. The first block is one layer,
BatchNorm2d(pool=True, conv=conv1), whose params() are conv1's weight,
gamma and beta: it runs conv1 one im2col slice at a time, its rows
in window-major order so that the pool reads and routes four contiguous
blocks per slice, and forms conv1's weight gradient from the slices' patch
moments, so conv1's output, the largest activation (H x W x
conv_channels[0] per frame), never exists at full size. conv1 has one
input channel and 15 patch columns; conv2 and conv3 have 240 and 480,
whose K x K moment matrices take more multiply-adds than their GEMMs, so
they stay Conv2d layers whose BN caches their output. Three dilated causal
temporal blocks (dilations 1/2/4, kernel 3, LeakyReLU + dropout, residual
with 1x1 projection on channel change) run over the frame axis; the last
time step feeds the dense head, Dense and LeakyReLU alternating and ending
in the 7 class logits. That step sees 1 + 2 * (1 + 2 + 4) = 15 frames back,
so frame 0 of a 16-frame sequence never reaches the logits: it reaches the
loss only through the frame CNN's batch statistics in training.
`_forward` runs a list front to back and `_backward` runs it back to front;
only the residual temporal blocks wire their own passes. The structure is
fixed: the kernels (FRAME_KERNEL, TCN_KERNEL), the reduction divisor
(REDUCE_DIVISOR), the temporal dilations (TCN_DILATIONS, after the generic
TCN of Bai, Kolter and Koltun, arXiv:1803.01271), the dropout probability
(DROPOUT), the dense widths (HEAD_HIDDEN, BASELINE_HEAD_HIDDEN),
LeakyReLU's slope of 0.01 and the class count (gestures.N_CLASSES).
CnnTcnConfig holds the input shape and the conv widths. A
checkpoint records a model's `kind` and `cfg` (see io.save_checkpoint);
`layout` gives the names and shapes of the arrays they build without
building them.

A plain-CNN baseline shares the frame CNN, replaces the temporal stack
with a mean over frames, and uses a smaller dense head.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .gestures import GESTURE_CLASSES, N_CLASSES
from .nn import (
    Adam,
    BatchNorm2d,
    CausalConv1d,
    ChannelReduce,
    Conv2d,
    Dense,
    Dropout,
    LeakyReLU,
    softmax,
    softmax_xent,
)
from .seeding import substream

log = logging.getLogger(__name__)

FRAME_KERNEL = (3, 5)  # (height, width) of each frame conv
TCN_KERNEL = 3
REDUCE_DIVISOR = 12  # the frame CNN's last width over this, ceil, at least 1
TCN_DILATIONS = (1, 2, 4)  # one causal temporal block each
DROPOUT = 0.1  # each temporal block's dropout probability
HEAD_HIDDEN = (48, 24)  # the CNN-TCN's dense widths before the logits
BASELINE_HEAD_HIDDEN = (24, 16)  # the plain CNN's


@dataclass(frozen=True)
class CnnTcnConfig:
    t_frames: int = 16
    height: int = 32
    width: int = 32
    conv_channels: tuple = (16, 32, 64)

    @property
    def reduced_channels(self) -> int:
        """Channel count after the frame CNN's 1/REDUCE_DIVISOR reduction
        (ceil, at least 1)."""
        return max(1, -(-self.conv_channels[-1] // REDUCE_DIVISOR))

    @property
    def frame_feature_len(self) -> int:
        """Features per frame: the reduced channels at each of the
        (height/4) x (width/4) positions left after two pools."""
        return (self.height // 4) * (self.width // 4) * self.reduced_channels

    def validate(self) -> None:
        if self.height % 4 or self.width % 4:
            raise ConfigError("height and width must be divisible by 4 (two 2x2 pools)")
        if len(self.conv_channels) != 3:
            raise ConfigError("exactly three conv widths expected")
        if any(v < 1 for v in (self.t_frames, self.height, self.width, *self.conv_channels)):
            raise ConfigError("every size and width must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0

    def validate(self) -> None:
        """ConfigError naming the first setting below its least value, by
        its key in a config's train section, and the value."""
        for key, least in (("lr", 0), ("batch_size", 1), ("epochs", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"train.{key} must be >= {least}, got {getattr(self, key)}")


def _forward(layers, x, train):
    for layer in layers:
        x = layer.forward(x, train)
    return x


def _backward(layers, dy):
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return dy


def _frame_cnn(cfg: CnnTcnConfig, rng) -> list:
    """[N, H, W, 1] frames -> [N, H/4, W/4, reduced_channels] maps."""
    layers, c_in = [], 1
    for i, c in enumerate(cfg.conv_channels, start=1):
        conv = Conv2d(c_in, c, *FRAME_KERNEL, rng=rng, name=f"frame.conv{i}")
        if i == 1:  # block 1 is one layer, which runs conv1 itself
            layers += [BatchNorm2d(c, name="frame.bn1", pool=True, conv=conv), LeakyReLU()]
        else:
            layers += [conv, BatchNorm2d(c, name=f"frame.bn{i}", pool=i < 3), LeakyReLU()]
        c_in = c
    layers.append(ChannelReduce(c_in, cfg.reduced_channels, rng=rng, name="frame.reduce"))
    return layers


def _dense_head(widths, rng) -> list:
    """Dense layers through `widths` to the class logits, LeakyReLU between."""
    dims = list(widths) + [N_CLASSES]
    layers = []
    for i in range(len(dims) - 1):
        if i:
            layers.append(LeakyReLU())
        layers.append(Dense(dims[i], dims[i + 1], rng=rng, name=f"head.fc{i + 1}"))
    return layers


class _TemporalBlock:
    def __init__(self, c_in, c_out, dilation, rng, name):
        self.conv = CausalConv1d(c_in, c_out, TCN_KERNEL, dilation, rng=rng, name=name + ".conv")
        self.act = LeakyReLU()
        self.drop = Dropout(DROPOUT)
        self.proj = None
        if c_in != c_out:
            self.proj = ChannelReduce(c_in, c_out, rng=rng, name=name + ".proj")
        self.layers = [self.conv] if self.proj is None else [self.conv, self.proj]

    def forward(self, x, train):
        y = self.drop.forward(self.act.forward(self.conv.forward(x, train), train), train)
        res = x if self.proj is None else self.proj.forward(x, train)
        return y + res

    def backward(self, dy):
        dres = dy if self.proj is None else self.proj.backward(dy)
        dx = self.conv.backward(self.act.backward(self.drop.backward(dy)))
        return dx + dres


class CnnTcn:
    """The full spatio-temporal classifier."""

    kind = "cnn-tcn"

    def __init__(self, cfg: CnnTcnConfig, init_seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = substream(init_seed, "init")
        self.frame = _frame_cnn(cfg, rng)
        self.blocks, self.head = self._blocks_and_head(cfg, rng)
        # every layer in parameter order, the order an RFNN checkpoint stores
        self.layers = self.frame + [layer for b in self.blocks for layer in b.layers] + self.head
        self.reset_rngs(init_seed)

    def _blocks_and_head(self, cfg, rng):
        blocks, c_in = [], cfg.frame_feature_len
        for bi, d in enumerate(TCN_DILATIONS):
            blocks.append(_TemporalBlock(c_in, cfg.reduced_channels, d, rng, name=f"tcn.block{bi}"))
            c_in = cfg.reduced_channels
        return blocks, _dense_head((c_in,) + HEAD_HIDDEN, rng)

    # -- plumbing ----------------------------------------------------------
    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def buffers(self):
        return [b for layer in self.layers for b in layer.buffers()]

    def reset_rngs(self, seed: int):
        for i, b in enumerate(self.blocks):
            b.drop.rng = substream(seed, "dropout", i)

    # -- computation --------------------------------------------------------
    def frame_features(self, x, train=False):
        """Per-frame feature vectors [B, T, F]; weights shared across frames."""
        c = self.cfg
        if x.ndim != 4 or x.shape[1:] != (c.t_frames, c.height, c.width):
            raise ShapeError(
                f"expected [batch, {c.t_frames}, {c.height}, {c.width}], got {x.shape}"
            )
        b, t, h, w = x.shape
        return _forward(self.frame, x.reshape(b * t, h, w, 1), train).reshape(b, t, -1)

    def _frame_backward(self, dfeats):
        """Frame-CNN parameter gradients from feature gradients [B, T, F]. The
        frames are data, so block 1 forms no input gradient."""
        c = self.cfg
        _backward(self.frame, dfeats.reshape(-1, c.height // 4, c.width // 4, c.reduced_channels))

    def forward(self, x, train=False):
        h = self.frame_features(x, train)
        for blk in self.blocks:
            h = blk.forward(h, train)
        self._t = h.shape[1]
        return _forward(self.head, h[:, -1, :], train)

    def backward(self, dlogits):
        """Accumulates every parameter gradient for the last forward; no
        gradient is formed for the input sequences."""
        dlast = _backward(self.head, dlogits)
        dh = np.zeros((dlast.shape[0], self._t, dlast.shape[1]))
        dh[:, -1, :] = dlast
        for blk in reversed(self.blocks):
            dh = blk.backward(dh)
        self._frame_backward(dh)


class CnnBaseline(CnnTcn):
    """Frame CNN + mean over frames + dense head (no temporal stack)."""

    kind = "cnn"

    def _blocks_and_head(self, cfg, rng):
        return [], _dense_head((cfg.frame_feature_len,) + BASELINE_HEAD_HIDDEN, rng)

    def forward(self, x, train=False):
        feats = self.frame_features(x, train)
        self._t = feats.shape[1]
        return _forward(self.head, feats.mean(axis=1), train)

    def backward(self, dlogits):
        """As CnnTcn.backward: parameter gradients only."""
        dmean = _backward(self.head, dlogits)
        self._frame_backward(np.repeat(dmean[:, np.newaxis, :], self._t, axis=1) / self._t)


MODEL_KINDS = (CnnTcn.kind, CnnBaseline.kind)


def _model_class(kind: str):
    for cls in (CnnTcn, CnnBaseline):
        if cls.kind == kind:
            return cls
    raise ConfigError(f"unknown model kind {kind!r} (expected 'cnn-tcn' or 'cnn')")


def build_model(kind: str, cfg: CnnTcnConfig, init_seed: int = 0):
    return _model_class(kind)(cfg, init_seed)


def layout(kind: str, cfg: CnnTcnConfig) -> list:
    """(name, shape) of each parameter, then each buffer, of
    build_model(kind, cfg), in that order, found without allocating any of
    them: io checks a checkpoint's declared arrays against it before it
    builds the model. ConfigError as build_model."""
    cfg.validate()
    chans, r = (1,) + cfg.conv_channels, cfg.reduced_channels
    params, buffers = [], []
    for i, (c_in, c) in enumerate(zip(chans, chans[1:]), start=1):
        params += [(f"frame.conv{i}.w", (*FRAME_KERNEL, c_in, c)),
                   (f"frame.bn{i}.gamma", (c,)), (f"frame.bn{i}.beta", (c,))]
        buffers += [(f"frame.bn{i}.running_mean", (c,)), (f"frame.bn{i}.running_var", (c,))]
    # every later layer holds a weight and a bias over the weight's last axis
    weighted = [("frame.reduce", (chans[-1], r))]
    c_in, hidden = cfg.frame_feature_len, BASELINE_HEAD_HIDDEN
    if _model_class(kind) is CnnTcn:
        for b in range(len(TCN_DILATIONS)):
            weighted.append((f"tcn.block{b}.conv", (TCN_KERNEL, c_in, r)))
            if c_in != r:  # a residual projection
                weighted.append((f"tcn.block{b}.proj", (c_in, r)))
            c_in = r
        hidden = HEAD_HIDDEN
    dims = (c_in,) + hidden + (N_CLASSES,)
    weighted += [(f"head.fc{i}", dims[i - 1 : i + 1]) for i in range(1, len(dims))]
    return params + [(name + part, shape if part == ".w" else shape[-1:])
                     for name, shape in weighted for part in (".w", ".b")] + buffers


# ---------------------------------------------------------------------------
# Training and inference
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    curve: list            # (epoch, train_loss, val_acc) rows
    best_epoch: int
    best_val_acc: float
    final_train_loss: float


def _state(model) -> list:
    """Every parameter's value, then every buffer: what a checkpoint stores."""
    return [p.value for p in model.params()] + [b for _, b in model.buffers()]


def predict_classes(model, x, batch_size: int = 64) -> np.ndarray:
    """Arg-max class of each sequence in x, forwarded in eval mode per batch."""
    return np.concatenate([model.forward(x[i : i + batch_size], train=False).argmax(axis=1)
                           for i in range(0, len(x), batch_size)])


def evaluate_accuracy(model, x, y) -> float:
    if len(y) == 0:
        return float("nan")
    return int((predict_classes(model, x) == y).sum()) / len(y)


def train_model(model, x, y, train_idx, val_idx, cfg: TrainConfig, *,
                log_prefix: str = "") -> TrainResult:
    """Mini-batch Adam training with best-val-accuracy checkpointing.

    Deterministic for a fixed cfg.seed: shuffles, dropout masks and
    parameter updates all derive from it. The model is left holding the
    best-validation parameters (ties resolve to the earliest epoch). With an
    empty validation set the final parameters are kept. Each epoch logs one
    INFO line that starts with `log_prefix` (a fold passes its id). A
    class id of GESTURE_CLASSES with no training sample raises DataError
    naming the gesture. `cfg` is taken as valid: the CLI runs
    TrainConfig.validate once, where it reads the config."""
    train_idx = np.asarray(train_idx, dtype=np.intp)
    val_idx = np.asarray(val_idx, dtype=np.intp)
    present = set(np.unique(y[train_idx]).tolist())
    for k, name in enumerate(GESTURE_CLASSES):
        if k not in present:
            raise DataError(f"class {name} has no samples in the training split")

    adam = Adam(model.params(), lr=cfg.lr)
    model.reset_rngs(cfg.seed)
    curve = []
    best = (-1.0, -1)  # (val acc, epoch)
    best_snap = None
    train_loss = float("nan")

    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(len(train_idx))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            # canonical within-batch order: batch composition is what matters,
            # and sorted indices keep full-batch training exactly order-free
            batch = np.sort(train_idx[order[start : start + cfg.batch_size]])
            logits = model.forward(x[batch], train=True)
            loss, _, dlogits = softmax_xent(logits, y[batch])
            adam.zero_grad()
            model.backward(dlogits)
            adam.step()
            losses.append(loss)
        train_loss = float(np.mean(losses))
        val_acc = evaluate_accuracy(model, x[val_idx], y[val_idx])  # nan without a val set
        curve.append((epoch, train_loss, val_acc))
        log.info("%sepoch %d: train_loss=%.4f val_acc=%.4f", log_prefix, epoch, train_loss,
                 val_acc)
        if len(val_idx) and val_acc > best[0]:
            best = (val_acc, epoch)
            best_snap = [a.copy() for a in _state(model)]

    if best_snap is not None:
        for a, v in zip(_state(model), best_snap):
            a[...] = v
    return TrainResult(curve=curve, best_epoch=best[1], best_val_acc=best[0],
                       final_train_loss=train_loss)


def predict(model, seq) -> tuple:
    """(class index, probabilities) for one RFDM sequence [T, H, W]; any
    other rank raises ShapeError."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"predict takes one [T, H, W] sequence, got shape {x.shape}")
    probs = softmax(model.forward(x[np.newaxis], train=False))[0]
    return int(probs.argmax()), probs
