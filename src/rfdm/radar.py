"""FMCW radar signal model and raw data-cube synthesis.

The front end is one fixed mmWave module, whose timing and frequencies are
module constants: the carrier F_C (77.144 GHz), the bandwidth BANDWIDTH
swept during the ADC sampling window (161.28 MHz), the ADC sample rate F_S
(6.25 MHz), the pulse repetition interval T_PRI (32.92 us) and the frame
period T_FRAME (100 ms), with the constants they imply, WAVELENGTH and
MAX_DOPPLER_VELOCITY (the unambiguous radial speed, 29.51 m/s).
`RadarConfig` holds the cube shape alone: the fast-time samples and the
chirps per frame. A sawtooth chirp has slope k = BANDWIDTH / T_s, where
T_s = n_samples / F_S is the sampling window. Mixing the echo of a point
scatterer at range R with the transmit chirp and low-pass filtering yields
a complex-baseband IF tone

    s(t_fast) = A * exp(j * (2*pi*k*t_d*t_fast + 2*pi*F_C*t_d)),  t_d = 2R/c,

so the beat frequency k*t_d encodes range and the chirp-to-chirp phase
2*pi*F_C*t_d encodes radial motion (Doppler). The quadratic residual
-pi*k*t_d^2 is negligible at short range and is dropped. Scatterers are
evaluated per chirp (stop-and-go): range is frozen within one chirp.

`synthesize_cube` returns the raw cube of the one receive channel as a
plain complex128 [frame, chirp, sample] array, whose shape carries the
frame, chirp and sample counts. It evaluates each trajectory once on the
[frame, chirp] slow-time grid. A scatterer whose range is one value over
the whole cube is static: its chirp row of n_samples exponentials is
evaluated once, and the static rows are summed, in scene order, into one
row per cube (a room's clutter), which each frame adds after its moving
tones. For a moving scatterer, fast-time sample n = 16*q + m of chirp l is
the product

    hi[l, q] = A * exp(j * 2*pi*(k*t_d[l]*(16*q/F_S) + F_C*t_d[l]))
    lo[l, m] = step_l**m,   step_l = exp(j * alpha_l),   alpha_l = 2*pi*k*t_d[l]/F_S,

with lo formed by repeated doubling (lo[l, w:2w] = lo[l, :w] * step_l**w for
w = 1, 2, 4, 8), so a chirp of 112 samples takes 7 + 1 exponentials instead
of 112. The samples at n = 16*q equal the per-element formula's bit for bit;
the others differ from it at the phase's own rounding level: by at most
1.7 * eps * |phase| per unit of amplitude over ranges 0.3-100 m and speeds
up to 10 m/s (1.1e-12 at 1 m, where the phase is 3.2e3 rad), as with one
exponential per lo element, since the rounding of hi's phase dominates
(the doubled powers lie within 40 eps of exp(j * alpha_l * m)). Tests
bound it by 8 * eps * |phase| in tests/test_radar.py. Adding the static rows
after the moving tones, not in scene order among them, moves a cube's
samples at rounding level only: by at most 2.7e-15 over one 63-scene
benchmark job at noise sigma 1. Noise is the same pair of standard-normal draws
a, b [chirp, sample] per frame, drawn by one call into one (2, chirp,
sample) buffer and scaled in place; scaling each part by the real
sigma/sqrt(2) rounds as the complex product sigma/sqrt(2) * (a + j*b) does,
so noise samples are bit-exact.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SimulationError
from .seeding import substream

C_LIGHT = 299_792_458.0  # propagation speed [m/s]
F_C = 77.144e9  # carrier frequency [Hz]
BANDWIDTH = 161.28e6  # bandwidth swept during the sampling window [Hz]
F_S = 6.25e6  # ADC sampling frequency [Hz]
T_PRI = 32.92e-6  # pulse repetition interval [s]
T_FRAME = 100e-3  # frame period [s]
WAVELENGTH = C_LIGHT / F_C  # [m]
# the unambiguous radial velocity span is +/- this value [m/s]
MAX_DOPPLER_VELOCITY = WAVELENGTH / (4.0 * T_PRI)

# Trajectory: vectorized time [s] -> range [m]. Its slope is the radial
# velocity (positive = receding), which the chirp-to-chirp phase carries.
Trajectory = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RadarConfig:
    """The cube shape of the fixed front end, which has one receive
    channel."""

    n_samples: int = 112       # fast-time samples per chirp
    n_chirps: int = 128        # chirps per frame

    @property
    def t_sample(self) -> float:
        """ADC sampling window per chirp [s]."""
        return self.n_samples / F_S

    @property
    def slope(self) -> float:
        """Frequency-modulation slope k = BANDWIDTH / t_sample [Hz/s]."""
        return BANDWIDTH / self.t_sample

    @property
    def max_range(self) -> float:
        """Range where the beat frequency reaches F_S [m]."""
        return F_S * C_LIGHT / (2.0 * self.slope)

    def validate(self) -> None:
        """ConfigError naming the first broken invariant. The values are
        taken as typed: the CLI refuses a boolean, or a number of the wrong
        type, before it builds a RadarConfig."""
        if min(self.n_samples, self.n_chirps) < 1:
            raise ConfigError("counts must be >= 1 (n_samples, n_chirps)")
        if self.t_sample > T_PRI:
            raise ConfigError(
                "sampling window exceeds PRI: n_samples/F_S = %.4g s > T_PRI = %.4g s"
                % (self.t_sample, T_PRI)
            )
        if self.n_chirps * T_PRI > T_FRAME:
            raise ConfigError(
                "chirps do not fit in the frame: n_chirps*T_PRI = %.4g s > T_FRAME = %.4g s"
                % (self.n_chirps * T_PRI, T_FRAME)
            )


@dataclass
class Scatterer:
    """A point scatterer with a range trajectory and a fixed echo amplitude."""

    trajectory: Trajectory
    amplitude: float = 1.0
    label: str = ""  # used in error messages only


def static_scatterer(range_m: float, amplitude: float = 1.0, label: str = "") -> Scatterer:
    """A scatterer whose range is `range_m` at every time."""

    def traj(t: np.ndarray):
        return np.full_like(np.asarray(t, dtype=float), range_m)

    return Scatterer(traj, amplitude, label or f"static@{range_m:.2f}m")


def if_signal_sample(config: RadarConfig, scatterer: Scatterer, t_fast, t_slow) -> complex:
    """Complex IF sample of one scatterer at fast time t_fast within the chirp
    starting at slow time t_slow. Accepts scalars or broadcastable arrays."""
    t_fast = np.asarray(t_fast, dtype=float)
    if np.any(t_fast < 0) or np.any(t_fast >= config.t_sample):
        raise ValueError(
            "t_fast outside the sampling window [0, %.4g s)" % config.t_sample
        )
    r = scatterer.trajectory(np.asarray(t_slow, dtype=float))
    t_d = 2.0 * r / C_LIGHT
    phase = 2.0 * np.pi * (config.slope * t_d * t_fast + F_C * t_d)
    out = scatterer.amplitude * np.exp(1j * phase)
    if out.ndim == 0:
        return complex(out)
    return out


def synthesize_cube(
    config: RadarConfig,
    scene,
    n_frames: int,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> np.ndarray:
    """Sum the IF returns of every scatterer in `scene` over an n_frames cube,
    plus circular complex Gaussian noise of total std `noise_sigma`; returns
    the complex128 [frame, chirp, sample] array.

    Chirp l of frame f is evaluated at t_slow = f*T_FRAME + l*T_PRI; the
    remainder of each frame period is idle. A frame sums its moving tones
    (7 + 1 exponentials per chirp, see the module docstring) and then adds
    the one chirp row of the static returns, summed once per cube. Noise is
    drawn from a per-frame sub-stream of `rng_seed`, so per-frame parallel
    synthesis would produce identical output. `config` is taken as valid:
    the CLI runs RadarConfig.validate once, where it reads the config.
    """
    n_c, n_s = config.n_chirps, config.n_samples
    t_fast = np.arange(n_s) / F_S
    two_pi = 2.0 * np.pi
    t_slow = np.arange(n_frames)[:, np.newaxis] * T_FRAME + np.arange(n_c) * T_PRI
    # range [m] of each scatterer from one trajectory call on the flat grid
    ranges = [np.asarray(sc.trajectory(t_slow.ravel()), dtype=float).reshape(t_slow.shape)
              for sc in scene]
    _check_ranges(scene, ranges, t_slow, config.max_range)

    # each moving scatterer with its round-trip delay [s] on the [frame,
    # chirp] grid; a scatterer at one range over the whole cube is static,
    # and the static returns are summed, in scene order, into one chirp row
    # (None: no static return)
    moving, static_sum = [], None
    for sc, r in zip(scene, ranges):
        t_d = 2.0 * r / C_LIGHT
        if np.ptp(r) == 0.0:
            d = t_d[0, 0]
            row = sc.amplitude * np.exp(1j * two_pi * (config.slope * d * t_fast + F_C * d))
            static_sum = row if static_sum is None else static_sum + row
        else:
            moving.append((sc, t_d))

    # fast-time sample n = split*q + m: tone[l, n] = hi[l, q] * lo[l, m]
    split = 16
    n_hi = -(-n_s // split)
    t_hi = t_fast[::split]
    lo = np.empty((n_c, split), dtype=np.complex128)
    lo[:, 0] = 1.0
    tone = np.empty((n_c, n_hi, split), dtype=np.complex128)
    tone_rows = tone.reshape(n_c, n_hi * split)[:, :n_s]

    cube = np.zeros((n_frames, n_c, n_s), dtype=np.complex128)
    if noise_sigma > 0.0:
        noise = np.empty((2, n_c, n_s))
        scale = noise_sigma / np.sqrt(2.0)
    for f in range(n_frames):
        frame_sum = cube[f]  # the frame is summed where it is stored
        for sc, t_d in moving:
            # hi: the tone at n = split*q, by the per-element formula; lo:
            # powers of the fast-time step exp(j*alpha) by repeated doubling,
            # lo[:, w:2w] = lo[:, :w] * step**w for w = 1, 2, 4, 8
            d = t_d[f]
            phase_hi = config.slope * np.outer(d, t_hi) + F_C * d[:, np.newaxis]
            hi = sc.amplitude * np.exp(1j * two_pi * phase_hi)
            step = np.exp(1j * (two_pi * config.slope / F_S) * d)[:, np.newaxis]
            w = 1
            while w < split:
                np.multiply(lo[:, :w], step, out=lo[:, w : 2 * w])
                step = step * step
                w *= 2
            np.multiply(hi[:, :, np.newaxis], lo[:, np.newaxis, :], out=tone)
            frame_sum += tone_rows
        if static_sum is not None:
            frame_sum += static_sum
        if noise_sigma > 0.0:
            # Generator fills only contiguous arrays: the real and imaginary
            # draws fill one reused buffer, in that order, and are added to
            # the frame's parts
            substream(rng_seed, "noise", f).standard_normal(out=noise)
            noise *= scale
            frame_sum.real += noise[0]
            frame_sum.imag += noise[1]

    return cube


def _check_ranges(scene, ranges, t_slow: np.ndarray, max_range: float) -> None:
    """Raise SimulationError for the first chirp, in frame order and then in
    scene order, at which a scatterer leaves (0, max_range)."""
    if not ranges:
        return
    bad = np.stack([(r <= 0.0) | (r >= max_range) for r in ranges])  # [S, F, C]
    if not bad.any():
        return
    f = int(np.argmax(bad.any(axis=(0, 2))))
    s = int(np.argmax(bad[:, f].any(axis=1)))
    i = int(np.argmax(bad[s, f]))
    raise SimulationError(
        "scatterer %r at R=%.3f m outside (0, %.3f m) at t=%.6f s"
        % (scene[s].label or "?", ranges[s][f, i], max_range, t_slow[f, i])
    )
