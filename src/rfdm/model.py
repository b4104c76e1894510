"""CNN-TCN classifier: per-frame CNN features, temporal conv stack, dense head.

The model is three layer lists. The frame CNN (conv 16 -> 32 -> 64 with 3x5
kernels, each block conv -> BN -> 2x2 max-pool -> LeakyReLU, the third block
without the pool, then a pointwise map reducing the 64 channels to
ceil(64/12) = 6) is applied with shared weights to every frame of the RFDM
sequence; its convs have no bias, since each feeds a train-mode BN whose
batch mean would cancel one. Pooling before the activation runs LeakyReLU on
a quarter of the cells. LeakyReLU is monotone, so this gives the outputs and
gradients of the usual conv -> BN -> LeakyReLU -> pool order bit for bit, but
for a 2x2 window holding two distinct negative values whose 0.01x rounds to
one double: there the max-pool gradient goes to the larger input, not to the
first of the tied activations. The reduced maps are flattened into one
feature vector per frame. Three dilated causal temporal blocks (dilations
1/2/4, kernel 3, LeakyReLU + dropout, residual with 1x1 projection on
channel change) run over the frame axis; the last time step feeds the dense
head, Dense and LeakyReLU alternating and ending in the 7 class logits.
`_forward` runs a list front to back and `_backward` runs it back to front;
only the residual temporal blocks wire their own passes. The kernels
(FRAME_KERNEL, TCN_KERNEL), LeakyReLU's default slope of 0.01 and the class
count (gestures.N_CLASSES) are fixed; CnnTcnConfig, which a checkpoint
records, holds the sizes that vary.

A plain-CNN baseline shares the frame CNN, replaces the temporal stack
with a mean over frames, and uses a smaller dense head.
"""

import logging
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .gestures import N_CLASSES
from .nn import (
    Adam,
    BatchNorm2d,
    CausalConv1d,
    ChannelReduce,
    Conv2d,
    Dense,
    Dropout,
    LeakyReLU,
    MaxPool2d,
    softmax,
    softmax_xent,
)
from .seeding import substream

log = logging.getLogger(__name__)

FRAME_KERNEL = (3, 5)  # (height, width) of each frame conv
TCN_KERNEL = 3


@dataclass(frozen=True)
class CnnTcnConfig:
    t_frames: int = 16
    height: int = 32
    width: int = 32
    conv_channels: tuple = (16, 32, 64)
    reduce_divisor: int = 12
    dilations: tuple = (1, 2, 4)
    dropout: float = 0.1
    head_hidden: tuple = (48, 24)
    baseline_head_hidden: tuple = (24, 16)

    @property
    def reduced_channels(self) -> int:
        """Channel count after the frame CNN's 1/reduce_divisor reduction
        (ceil, at least 1)."""
        return max(1, -(-self.conv_channels[-1] // self.reduce_divisor))

    @property
    def spatial_positions(self) -> int:
        return (self.height // 4) * (self.width // 4)

    @property
    def frame_feature_len(self) -> int:
        return self.spatial_positions * self.reduced_channels

    def validate(self) -> None:
        if self.height % 4 or self.width % 4:
            raise ConfigError("height and width must be divisible by 4 (two 2x2 pools)")
        if len(self.conv_channels) != 3:
            raise ConfigError("exactly three conv widths expected")
        sizes = (self.t_frames, self.height, self.width, *self.conv_channels,
                 self.reduce_divisor, *self.dilations,
                 *self.head_hidden, *self.baseline_head_hidden)
        if any(v < 1 for v in sizes):
            raise ConfigError("every size, width, divisor and dilation must be >= 1")
        if any(d2 <= d1 for d1, d2 in zip(self.dilations, self.dilations[1:])):
            raise ConfigError("dilations must be strictly increasing")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0

    def validate(self) -> None:
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("lr >= 0, batch_size >= 1, epochs >= 1 required")


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
    kh, kw = FRAME_KERNEL
    layers, c_in = [], 1
    for i, c in enumerate(cfg.conv_channels, start=1):
        layers += [Conv2d(c_in, c, kh, kw, rng=rng, name=f"frame.conv{i}"),
                   BatchNorm2d(c, name=f"frame.bn{i}")]
        if i < 3:
            layers.append(MaxPool2d())
        layers.append(LeakyReLU())
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
    def __init__(self, c_in, c_out, dilation, p, rng, name):
        self.conv = CausalConv1d(c_in, c_out, TCN_KERNEL, dilation, rng=rng, name=name + ".conv")
        self.act = LeakyReLU()
        self.drop = Dropout(p)
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
        for bi, d in enumerate(cfg.dilations):
            blocks.append(_TemporalBlock(c_in, cfg.reduced_channels, d, cfg.dropout, rng,
                                         name=f"tcn.block{bi}"))
            c_in = cfg.reduced_channels
        return blocks, _dense_head((c_in,) + cfg.head_hidden, rng)

    # -- plumbing ----------------------------------------------------------
    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def buffers(self):
        return [b for layer in self.layers for b in layer.buffers()]

    def reset_rngs(self, seed: int):
        for i, b in enumerate(self.blocks):
            b.drop.rng = substream(seed, "dropout", i)

    def describe(self) -> dict:
        return {"kind": self.kind, "config": asdict(self.cfg)}

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
        frames are data, so conv1 forms no input gradient."""
        c = self.cfg
        dz = dfeats.reshape(-1, c.height // 4, c.width // 4, c.reduced_channels)
        self.frame[0].backward(_backward(self.frame[1:], dz), need_dx=False)

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
        return [], _dense_head((cfg.frame_feature_len,) + cfg.baseline_head_hidden, rng)

    def forward(self, x, train=False):
        feats = self.frame_features(x, train)
        self._t = feats.shape[1]
        return _forward(self.head, feats.mean(axis=1), train)

    def backward(self, dlogits):
        """As CnnTcn.backward: parameter gradients only."""
        dmean = _backward(self.head, dlogits)
        self._frame_backward(np.repeat(dmean[:, np.newaxis, :], self._t, axis=1) / self._t)


def build_model(kind: str, cfg: CnnTcnConfig, init_seed: int = 0):
    if kind == "cnn-tcn":
        return CnnTcn(cfg, init_seed)
    if kind == "cnn":
        return CnnBaseline(cfg, init_seed)
    raise ConfigError(f"unknown model kind {kind!r} (expected 'cnn-tcn' or 'cnn')")


# ---------------------------------------------------------------------------
# Training and inference
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    curve: list            # (epoch, train_loss, val_acc) rows
    best_epoch: int
    best_val_acc: float
    final_train_loss: float


def _snapshot(model):
    return ([p.value.copy() for p in model.params()],
            [b.copy() for _, b in model.buffers()])


def _restore(model, snap):
    values, buffers = snap
    for p, v in zip(model.params(), values):
        p.value[...] = v
    for (_, b), v in zip(model.buffers(), buffers):
        b[...] = v


def predict_classes(model, x, batch_size: int = 64) -> np.ndarray:
    """Arg-max class of each sequence in x, forwarded in eval mode per batch."""
    return np.concatenate([model.forward(x[i : i + batch_size], train=False).argmax(axis=1)
                           for i in range(0, len(x), batch_size)])


def evaluate_accuracy(model, x, y) -> float:
    if len(y) == 0:
        return float("nan")
    return int((predict_classes(model, x) == y).sum()) / len(y)


def train_model(model, x, y, train_idx, val_idx, cfg: TrainConfig, *,
                class_names=None) -> TrainResult:
    """Mini-batch Adam training with best-val-accuracy checkpointing.

    Deterministic for a fixed cfg.seed: shuffles, dropout masks and
    parameter updates all derive from it. The model is left holding the
    best-validation parameters (ties resolve to the earliest epoch). With an
    empty validation set the final parameters are kept. Each epoch logs one
    INFO line."""
    cfg.validate()
    train_idx = np.asarray(train_idx, dtype=np.intp)
    val_idx = np.asarray(val_idx, dtype=np.intp)
    present = set(np.unique(y[train_idx]).tolist())
    for k in range(N_CLASSES):
        if k not in present:
            name = class_names[k] if class_names else str(k)
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
        log.info("epoch %d: train_loss=%.4f val_acc=%.4f", epoch, train_loss, val_acc)
        if len(val_idx) and val_acc > best[0]:
            best = (val_acc, epoch)
            best_snap = _snapshot(model)

    if best_snap is not None:
        _restore(model, best_snap)
    return TrainResult(curve=curve, best_epoch=best[1], best_val_acc=best[0],
                       final_train_loss=train_loss)


def predict(model, seq) -> tuple:
    """(class index, probabilities) for one RFDM sequence [T, H, W]."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim == 3:
        x = x[np.newaxis]
    logits = model.forward(x, train=False)
    probs = softmax(logits)[0]
    return int(probs.argmax()), probs
