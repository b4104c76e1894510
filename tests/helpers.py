"""Shared test utilities: central-difference gradient checking."""

import numpy as np

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
