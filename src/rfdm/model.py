"""CNN-TCN classifier: per-frame CNN features, temporal conv stack, dense head.

The frame model (conv 16 -> 32 -> 64 with 3x5 kernels, BN + LeakyReLU per
block, 2x2 max-pool after the first two blocks) is applied with shared
weights to every frame of the RFDM sequence. Its spatial output is
flattened per channel and a pointwise map reduces the 64 channels to
ceil(64/12) = 6; the reduced maps are flattened into one feature vector
per frame. Three dilated causal temporal blocks (dilations 1/2/4,
kernel 3, LeakyReLU + dropout, residual with 1x1 projection on channel
change) run over the frame axis; the last time step feeds three dense
layers ending in the 7 class logits.

A plain-CNN baseline shares the frame model, replaces the temporal stack
with a mean over frames, and uses a smaller dense head.
"""

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, DataError, ShapeError
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
    reduced_channel_count,
    softmax,
    softmax_xent,
)
from .seeding import substream


@dataclass(frozen=True)
class CnnTcnConfig:
    t_frames: int = 16
    height: int = 32
    width: int = 32
    conv_channels: tuple = (16, 32, 64)
    conv_kernel: tuple = (3, 5)
    reduce_divisor: int = 12
    tcn_kernel: int = 3
    dilations: tuple = (1, 2, 4)
    dropout: float = 0.1
    head_hidden: tuple = (48, 24)
    baseline_head_hidden: tuple = (24, 16)
    n_classes: int = 7
    leaky_slope: float = 0.01

    @property
    def reduced_channels(self) -> int:
        return reduced_channel_count(self.conv_channels[-1], self.reduce_divisor)

    @property
    def spatial_positions(self) -> int:
        return (self.height // 4) * (self.width // 4)

    @property
    def frame_feature_len(self) -> int:
        return self.spatial_positions * self.reduced_channels

    def validate(self) -> None:
        if self.t_frames < 1 or self.n_classes < 2:
            raise ConfigError("t_frames >= 1 and n_classes >= 2 required")
        if self.height % 4 or self.width % 4:
            raise ConfigError("height and width must be divisible by 4 (two 2x2 pools)")
        if len(self.conv_channels) != 3:
            raise ConfigError("exactly three conv widths expected")
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
    patience: int | None = None  # stop after this many epochs without val improvement

    def validate(self) -> None:
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("lr >= 0, batch_size >= 1, epochs >= 1 required")


class _FrameStack:
    """Shared-weight frame CNN; processes all frames as one batch."""

    def __init__(self, cfg: CnnTcnConfig, rng):
        kh, kw = cfg.conv_kernel
        c1, c2, c3 = cfg.conv_channels
        a = cfg.leaky_slope
        self.conv1 = Conv2d(1, c1, kh, kw, rng=rng, name="frame.conv1")
        self.bn1 = BatchNorm2d(c1, name="frame.bn1")
        self.conv2 = Conv2d(c1, c2, kh, kw, rng=rng, name="frame.conv2")
        self.bn2 = BatchNorm2d(c2, name="frame.bn2")
        self.conv3 = Conv2d(c2, c3, kh, kw, rng=rng, name="frame.conv3")
        self.bn3 = BatchNorm2d(c3, name="frame.bn3")
        self.acts = [LeakyReLU(a) for _ in range(3)]
        self.pools = [MaxPool2d(), MaxPool2d()]
        self.reduce = ChannelReduce(c3, cfg.reduced_channels, rng=rng, name="frame.reduce")
        self.cfg = cfg

    def layers(self):
        return [self.conv1, self.bn1, self.conv2, self.bn2, self.conv3, self.bn3, self.reduce]

    def forward(self, frames, train):
        # frames: [N, H, W] -> features [N, frame_feature_len]
        z = frames[..., np.newaxis]
        z = self.bn1.forward(self.conv1.forward(z), train)
        z = self.pools[0].forward(self.acts[0].forward(z, train), train)
        z = self.bn2.forward(self.conv2.forward(z), train)
        z = self.pools[1].forward(self.acts[1].forward(z, train), train)
        z = self.acts[2].forward(self.bn3.forward(self.conv3.forward(z), train), train)
        n, hh, ww, c = z.shape
        z = z.reshape(n, hh * ww, c)          # flatten spatial, keep channels
        z = self.reduce.forward(z, train)     # [N, L, C']
        self._l = z.shape[1]
        return z.reshape(n, -1)

    def backward(self, dfeat):
        """Accumulates the frame CNN's parameter gradients. The frames are
        data, so conv1 forms no input gradient and nothing is returned."""
        n = dfeat.shape[0]
        dz = dfeat.reshape(n, self._l, self.cfg.reduced_channels)
        dz = self.reduce.backward(dz)
        hw = self.cfg.height // 4
        dz = dz.reshape(n, hw, self.cfg.width // 4, self.cfg.conv_channels[-1])
        dz = self.conv3.backward(self.bn3.backward(self.acts[2].backward(dz)))
        dz = self.pools[1].backward(dz)
        dz = self.conv2.backward(self.bn2.backward(self.acts[1].backward(dz)))
        dz = self.pools[0].backward(dz)
        self.conv1.backward(self.bn1.backward(self.acts[0].backward(dz)), need_dx=False)


class _TemporalBlock:
    def __init__(self, c_in, c_out, kt, dilation, p, slope, rng, name):
        self.conv = CausalConv1d(c_in, c_out, kt, dilation, rng=rng, name=name + ".conv")
        self.act = LeakyReLU(slope)
        self.drop = Dropout(p)
        self.proj = None
        if c_in != c_out:
            self.proj = ChannelReduce(c_in, c_out, rng=rng, name=name + ".proj")

    def layers(self):
        out = [self.conv]
        if self.proj is not None:
            out.append(self.proj)
        return out

    def forward(self, x, train):
        y = self.drop.forward(self.act.forward(self.conv.forward(x, train), train), train)
        res = x if self.proj is None else self.proj.forward(x, train)
        return y + res

    def backward(self, dy):
        dres = dy if self.proj is None else self.proj.backward(dy)
        dx = self.conv.backward(self.act.backward(self.drop.backward(dy)))
        return dx + dres


class _Head:
    def __init__(self, widths, n_classes, slope, rng, name):
        dims = list(widths) + [n_classes]
        self.denses = [
            Dense(dims[i], dims[i + 1], rng=rng, name=f"{name}.fc{i + 1}")
            for i in range(len(dims) - 1)
        ]
        self.acts = [LeakyReLU(slope) for _ in range(len(self.denses) - 1)]

    def layers(self):
        return list(self.denses)

    def forward(self, x, train):
        for i, d in enumerate(self.denses[:-1]):
            x = self.acts[i].forward(d.forward(x, train), train)
        return self.denses[-1].forward(x, train)

    def backward(self, dy):
        dy = self.denses[-1].backward(dy)
        for act, d in zip(reversed(self.acts), reversed(self.denses[:-1])):
            dy = d.backward(act.backward(dy))
        return dy


class CnnTcn:
    """The full spatio-temporal classifier."""

    kind = "cnn-tcn"

    def __init__(self, cfg: CnnTcnConfig, init_seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = substream(init_seed, "init")
        self.frame = _FrameStack(cfg, rng)
        c_feat = cfg.frame_feature_len
        c_hidden = cfg.reduced_channels
        self.blocks = []
        c_in = c_feat
        for bi, d in enumerate(cfg.dilations):
            self.blocks.append(
                _TemporalBlock(c_in, c_hidden, cfg.tcn_kernel, d, cfg.dropout,
                               cfg.leaky_slope, rng, name=f"tcn.block{bi}")
            )
            c_in = c_hidden
        self.head = _Head((c_hidden,) + cfg.head_hidden, cfg.n_classes,
                          cfg.leaky_slope, rng, name="head")
        self.reset_rngs(init_seed)

    # -- plumbing ----------------------------------------------------------
    def _layer_objs(self):
        objs = self.frame.layers()
        for b in self.blocks:
            objs.extend(b.layers())
        objs.extend(self.head.layers())
        return objs

    def params(self):
        out = []
        for layer in self._layer_objs():
            out.extend(layer.params())
        return out

    def buffers(self):
        out = []
        for layer in self._layer_objs():
            out.extend(layer.buffers())
        return out

    def reset_rngs(self, seed: int):
        for i, b in enumerate(self.blocks):
            b.drop.set_rng(substream(seed, "dropout", i))

    def describe(self) -> dict:
        return {"kind": self.kind, "config": asdict(self.cfg)}

    # -- computation --------------------------------------------------------
    def _check_input(self, x):
        c = self.cfg
        if x.ndim != 4 or x.shape[1:] != (c.t_frames, c.height, c.width):
            raise ShapeError(
                f"expected [batch, {c.t_frames}, {c.height}, {c.width}], got {x.shape}"
            )

    def frame_features(self, x, train=False):
        """Per-frame feature vectors [B, T, F]; weights shared across frames."""
        self._check_input(x)
        b, t, h, w = x.shape
        feats = self.frame.forward(x.reshape(b * t, h, w), train)
        return feats.reshape(b, t, -1)

    def forward(self, x, train=False):
        feats = self.frame_features(x, train)
        h = feats
        for blk in self.blocks:
            h = blk.forward(h, train)
        self._t = h.shape[1]
        return self.head.forward(h[:, -1, :], train)

    def backward(self, dlogits):
        """Accumulates every parameter gradient for the last forward; no
        gradient is formed for the input sequences."""
        dlast = self.head.backward(dlogits)
        dh = np.zeros((dlast.shape[0], self._t, dlast.shape[1]))
        dh[:, -1, :] = dlast
        for blk in reversed(self.blocks):
            dh = blk.backward(dh)
        b, t, f = dh.shape
        self.frame.backward(dh.reshape(b * t, f))

    def sequence_forward(self, feats, train=False):
        """Temporal stack output [B, T, C'] from precomputed features."""
        h = feats
        for blk in self.blocks:
            h = blk.forward(h, train)
        return h


class CnnBaseline(CnnTcn):
    """Frame model + mean over frames + dense head (no temporal stack)."""

    kind = "cnn"

    def __init__(self, cfg: CnnTcnConfig, init_seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = substream(init_seed, "init")
        self.frame = _FrameStack(cfg, rng)
        self.blocks = []
        self.head = _Head((cfg.frame_feature_len,) + cfg.baseline_head_hidden,
                          cfg.n_classes, cfg.leaky_slope, rng, name="head")
        self.reset_rngs(init_seed)

    def forward(self, x, train=False):
        feats = self.frame_features(x, train)
        self._t = feats.shape[1]
        return self.head.forward(feats.mean(axis=1), train)

    def backward(self, dlogits):
        """As CnnTcn.backward: parameter gradients only."""
        dmean = self.head.backward(dlogits)
        b, f = dmean.shape
        dfeats = np.repeat(dmean[:, np.newaxis, :], self._t, axis=1) / self._t
        self.frame.backward(dfeats.reshape(b * self._t, f))


def build_model(kind: str, cfg: CnnTcnConfig, init_seed: int = 0):
    if kind == "cnn-tcn":
        return CnnTcn(cfg, init_seed)
    if kind == "cnn":
        return CnnBaseline(cfg, init_seed)
    raise ConfigError(f"unknown model kind {kind!r} (expected 'cnn-tcn' or 'cnn')")


def param_count(model) -> int:
    return sum(p.value.size for p in model.params())


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


def evaluate_accuracy(model, x, y, batch_size: int = 64) -> float:
    if len(y) == 0:
        return float("nan")
    return int((predict_classes(model, x, batch_size) == y).sum()) / len(y)


def train_model(model, x, y, train_idx, val_idx, cfg: TrainConfig,
                class_names=None, log=None) -> TrainResult:
    """Mini-batch Adam training with best-val-accuracy checkpointing.

    Deterministic for a fixed cfg.seed: shuffles, dropout masks and
    parameter updates all derive from it. The model is left holding the
    best-validation parameters (ties resolve to the earliest epoch). With an
    empty validation set the final parameters are kept."""
    cfg.validate()
    train_idx = np.asarray(train_idx, dtype=np.intp)
    val_idx = np.asarray(val_idx, dtype=np.intp)
    present = set(np.unique(y[train_idx]).tolist())
    for k in range(model.cfg.n_classes):
        if k not in present:
            name = class_names[k] if class_names else str(k)
            raise DataError(f"class {name} has no samples in the training split")

    adam = Adam(model.params(), lr=cfg.lr)
    model.reset_rngs(cfg.seed)
    curve = []
    best = (-1.0, -1)  # (val acc, epoch)
    best_snap = None
    no_improve = 0
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
        val_acc = evaluate_accuracy(model, x[val_idx], y[val_idx]) if len(val_idx) else float("nan")
        curve.append((epoch, train_loss, val_acc))
        if log:
            log(f"epoch {epoch}: train_loss={train_loss:.4f} val_acc={val_acc:.4f}")
        if len(val_idx) and val_acc > best[0]:
            best = (val_acc, epoch)
            best_snap = _snapshot(model)
            no_improve = 0
        else:
            no_improve += 1
        if cfg.patience is not None and no_improve > cfg.patience:
            break

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
