"""Shared test utilities: central-difference gradient checking, a layer's
backward state, the max-pool as a layer over images, the traced memory peak
of a call, a scatterer whose range moves at a constant velocity, the radar's
bin widths, the radar keys of older configs and manifests, rewritten
checkpoint descriptors, and the unused-import check."""

import ast
import json
import struct
import tracemalloc

import numpy as np

from rfdm.nn import Layer, MaxPool2d, window_view
from rfdm.radar import BANDWIDTH, C_LIGHT, T_PRI, WAVELENGTH, Scatterer

GRADCHECK_STEP = 1e-5
GRADCHECK_TOL = 1e-4


def numeric_grad(f, arr, h=GRADCHECK_STEP):
    """Central finite differences of scalar-valued f() w.r.t. arr, in place."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def grad_rel_err(analytic, numeric):
    """Max elementwise difference normalized by the larger gradient magnitude.

    The 1e-5 floor keeps a gradient that is zero in exact arithmetic from
    dividing finite-difference noise by itself: e.g. a train-mode
    BatchNorm2d's input gradient under an output gradient that is constant
    per channel, which the batch mean cancels."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(n), initial=0.0), 1e-5)
    return float(np.max(np.abs(a - n), initial=0.0) / scale)


def check_layer_gradients(layer, x, seed=0, tol=GRADCHECK_TOL):
    """Gradcheck one layer, in train mode, against a fixed random projection
    of its output.

    Verifies the input gradient, when the layer returns one, and every
    parameter gradient; returns the worst relative error seen."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    proj = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(layer.forward(x, train=True) * proj))

    for p in layer.params():
        p.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(proj)

    worst = 0.0 if dx is None else grad_rel_err(dx, numeric_grad(loss, x))
    for p in layer.params():
        worst = max(worst, grad_rel_err(p.grad, numeric_grad(loss, p.value)))
    assert worst <= tol, f"gradcheck failed: rel err {worst:.3e} > {tol}"
    return worst


def backward_state(layer) -> list:
    """Names of the layer's backward caches (inputs, masks, indices) that
    are set."""
    return [a for a in ("_cache", "_mask", "_x") if getattr(layer, a, None) is not None]


class ImagePool(Layer):
    """nn.MaxPool2d as a layer of a chain over images [N, H, W, C]: a train
    forward keeps the index in `index`, and backward routes dy into a new
    image-sized gradient, as a pooled BatchNorm2d does with its pool."""

    index = None

    def forward(self, x, train=False):
        blocks = window_view(x)
        self.index = np.empty(blocks.shape[2:], np.uint8) if train else None
        return MaxPool2d().forward(blocks, self.index)

    def backward(self, dy):
        n, h, w, c = dy.shape
        dx = np.empty((n, 2 * h, 2 * w, c))
        MaxPool2d().backward(self.index, dy, window_view(dx))
        self.index = None
        return dx


def traced_peak(fn) -> int:
    """Peak bytes of traced (tracemalloc) allocations while fn() runs; what
    exists before the call is not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def linear_scatterer(r0: float, v: float, amplitude: float = 1.0, label: str = "") -> Scatterer:
    """Range R(t) = r0 + v*t [m]: constant radial velocity v [m/s]."""

    def traj(t: np.ndarray):
        return r0 + v * np.asarray(t, dtype=float)

    return Scatterer(traj, amplitude, label or f"linear@{r0:.2f}m{v:+.2f}m/s")


# range bin width of an unpadded range FFT, c / (2B) [m]
RANGE_RESOLUTION = C_LIGHT / (2.0 * BANDWIDTH)


def doppler_resolution(config) -> float:
    """Velocity bin width of an unpadded full-frame Doppler FFT [m/s]."""
    return WAVELENGTH / (2.0 * config.n_chirps * T_PRI)


# the radar keys of a config or dataset manifest written while the carrier,
# bandwidth, sample rate, PRI and frame period could be set: n_samples and
# n_chirps are RadarConfig's fields, the other five radar.py's constants
PAST_RADAR_KEYS = ("f_c", "B", "f_s", "n_samples", "n_chirps", "t_pri", "t_frame")


def radar_key_refusal(name: str, key: str, value) -> str:
    """The ConfigError message for a non-integer `value` (a boolean, a
    string or a non-finite number) under `key` of the radar object `name`: a
    count of the wrong type, or an unknown key for a fixed constant, whatever
    its value."""
    if key in ("n_samples", "n_chirps"):
        return (f"config value of the wrong type: {name}.{key} must be an integer, "
                f"got {json.dumps(value)}")
    return f"unknown config key '{name}.{key}'"


def edit_descriptor(raw: bytes, edit) -> bytes:
    """An RFNN file's bytes with `edit` applied to its descriptor."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    descriptor = json.loads(raw[12 : 12 + blob_len])
    edit(descriptor)
    blob = json.dumps(descriptor, sort_keys=True).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len :]


def rewrite_descriptor(path, edit):
    """Rewrite the checkpoint at `path` with `edit` applied to its descriptor."""
    path.write_bytes(edit_descriptor(path.read_bytes(), edit))


def older_checkpoint_layout(raw: bytes) -> bytes:
    """An RFNN file's bytes rewritten in the layout written while the model
    config carried the kernels, the LeakyReLU slope and the class count,
    and the file ended in an optimizer-state flag (0: none)."""
    return edit_descriptor(raw, lambda descriptor: descriptor["config"].update(
        conv_kernel=[3, 5], tcn_kernel=3, n_classes=7, leaky_slope=0.01)) + b"\x00"


def with_structure_keys(raw: bytes) -> bytes:
    """An RFNN file's bytes as written while the model config also carried
    the reduction divisor, the dilations, the dropout and the two heads'
    widths, which model.py now fixes: the same arrays, and those five keys
    at their fixed values."""
    return edit_descriptor(raw, lambda descriptor: descriptor["config"].update(
        reduce_divisor=12, dilations=[1, 2, 4], dropout=0.1, head_hidden=[48, 24],
        baseline_head_hidden=[24, 16]))


def unused_imports(source: str) -> list:
    """(line, name) of each name that the module's `import` and `from ...
    import` statements bind and the module never loads as a name, nor lists
    in its `__all__`; `from __future__` imports bind no name. A stdlib-`ast`
    stand-in for a linter's unused-import check."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)
