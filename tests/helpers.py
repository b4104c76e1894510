"""Shared test utilities: central-difference gradient checking, a layer's
backward state, a constant-velocity scatterer, the radar's bin widths and an
older checkpoint layout."""

import json
import struct

import numpy as np

from rfdm.radar import C_LIGHT, Scatterer

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

    Verifies the input gradient and every parameter gradient; returns the
    worst relative error seen."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    proj = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(layer.forward(x, train=True) * proj))

    for p in layer.params():
        p.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(proj)

    worst = grad_rel_err(dx, numeric_grad(loss, x))
    for p in layer.params():
        worst = max(worst, grad_rel_err(p.grad, numeric_grad(loss, p.value)))
    assert worst <= tol, f"gradcheck failed: rel err {worst:.3e} > {tol}"
    return worst


def backward_state(layer) -> list:
    """Names of the layer's backward caches (inputs, masks, indices) that
    are set."""
    return [a for a in ("_cache", "_mask", "_x") if getattr(layer, a, None) is not None]


def linear_scatterer(r0: float, v: float, amplitude: float = 1.0, label: str = "") -> Scatterer:
    """Constant radial velocity, R(t) = r0 + v*t."""

    def traj(t: np.ndarray):
        t = np.asarray(t, dtype=float)
        return r0 + v * t, np.full_like(t, v)

    return Scatterer(traj, amplitude, label or f"linear@{r0:.2f}m{v:+.2f}m/s")


def range_resolution(config) -> float:
    """Range bin width of an unpadded range FFT, c / (2B) [m]."""
    return C_LIGHT / (2.0 * config.B)


def doppler_resolution(config) -> float:
    """Velocity bin width of an unpadded full-frame Doppler FFT [m/s]."""
    return config.wavelength / (2.0 * config.n_chirps * config.t_pri)


def older_checkpoint_layout(raw: bytes) -> bytes:
    """An RFNN file's bytes rewritten in the layout written while the model
    config carried the kernels, the LeakyReLU slope and the class count,
    and the file ended in an optimizer-state flag (0: none)."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    descriptor = json.loads(raw[12 : 12 + blob_len])
    descriptor["config"].update(conv_kernel=[3, 5], tcn_kernel=3, n_classes=7,
                                leaky_slope=0.01)
    blob = json.dumps(descriptor, sort_keys=True).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len :] + b"\x00"
