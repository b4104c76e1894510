"""FMCW radar signal model and raw data-cube synthesis.

A sawtooth FMCW front end transmits chirps of slope k = B / T_s where T_s
is the ADC sampling window n_samples / f_s. Mixing the echo of a point
scatterer at range R with the transmit chirp and low-pass filtering yields
a complex-baseband IF tone

    s(t_fast) = A * exp(j * (2*pi*k*t_d*t_fast + 2*pi*f_c*t_d)),  t_d = 2R/c,

so the beat frequency k*t_d encodes range and the chirp-to-chirp phase
2*pi*f_c*t_d encodes radial motion (Doppler). The quadratic residual
-pi*k*t_d^2 is negligible at short range and is dropped. Scatterers are
evaluated per chirp (stop-and-go): range is frozen within one chirp.

`synthesize_cube` returns the raw cube of the one receive channel as a
plain complex128 [frame, chirp, sample] array, whose shape carries the
frame, chirp and sample counts. It evaluates each trajectory once on the
[frame, chirp] slow-time grid. Before the frame loop, every return that is
static within a frame is summed, in scene order, into one chirp row for
that frame: each distinct (scatterer, delay) row of n_samples exponentials
is evaluated once, and frames with the same static returns share one summed
row, so a room's clutter is one row per cube. Each frame adds its row once,
after its moving tones. For a moving scatterer, fast-time sample n = 16*q + m
of chirp l is the product

    hi[l, q] = A * exp(j * 2*pi*(k*t_d[l]*(16*q/f_s) + f_c*t_d[l]))
    lo[l, m] = step_l**m,   step_l = exp(j * alpha_l),   alpha_l = 2*pi*k*t_d[l]/f_s,

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

# Trajectory: vectorized time [s] -> range [m]. Its slope is the radial
# velocity (positive = receding), which the chirp-to-chirp phase carries.
Trajectory = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RadarConfig:
    """Chirp/frame parameters of the simulated FMCW front end, which has one
    receive channel."""

    f_c: float = 77.144e9      # carrier frequency [Hz]
    B: float = 161.28e6        # bandwidth swept during the sampling window [Hz]
    f_s: float = 6.25e6        # ADC sampling frequency [Hz]
    n_samples: int = 112       # fast-time samples per chirp
    n_chirps: int = 128        # chirps per frame
    t_pri: float = 32.92e-6    # pulse repetition interval [s]
    t_frame: float = 100e-3    # frame period [s]

    @property
    def t_sample(self) -> float:
        """ADC sampling window per chirp [s]."""
        return self.n_samples / self.f_s

    @property
    def slope(self) -> float:
        """Frequency-modulation slope k = B / t_sample [Hz/s]."""
        return self.B / self.t_sample

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.f_c

    @property
    def max_range(self) -> float:
        """Range where the beat frequency reaches f_s [m]."""
        return self.f_s * C_LIGHT / (2.0 * self.slope)

    @property
    def max_doppler_velocity(self) -> float:
        """Unambiguous radial velocity span is +/- this value [m/s]."""
        return self.wavelength / (4.0 * self.t_pri)

    def validate(self) -> None:
        """ConfigError naming the first broken invariant. The values are
        taken as typed: the CLI refuses a boolean, or a number of the wrong
        type or not finite, before it builds a RadarConfig."""
        if not (self.f_c > 0 and self.B > 0 and self.f_s > 0):
            raise ConfigError("frequencies must be positive (f_c, B, f_s > 0)")
        if not (self.t_pri > 0 and self.t_frame > 0):
            raise ConfigError("times must be positive (t_pri, t_frame > 0)")
        if min(self.n_samples, self.n_chirps) < 1:
            raise ConfigError("counts must be >= 1 (n_samples, n_chirps)")
        if self.t_sample > self.t_pri:
            raise ConfigError(
                "sampling window exceeds PRI: n_samples/f_s = %.4g s > t_pri = %.4g s"
                % (self.t_sample, self.t_pri)
            )
        if self.n_chirps * self.t_pri > self.t_frame:
            raise ConfigError(
                "chirps do not fit in the frame: n_chirps*t_pri = %.4g s > t_frame = %.4g s"
                % (self.n_chirps * self.t_pri, self.t_frame)
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
    phase = 2.0 * np.pi * (config.slope * t_d * t_fast + config.f_c * t_d)
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

    Chirp l of frame f is evaluated at t_slow = f*t_frame + l*t_pri; the
    remainder of each frame period is idle. A frame sums its moving tones
    (7 + 1 exponentials per chirp, see the module docstring) and then adds
    the one chirp row of its static returns, summed once per cube. Noise is
    drawn from a per-frame sub-stream of `rng_seed`, so per-frame parallel
    synthesis would produce identical output. `config` is taken as valid:
    the CLI runs RadarConfig.validate once, where it reads the config.
    """
    n_c, n_s = config.n_chirps, config.n_samples
    t_fast = np.arange(n_s) / config.f_s
    two_pi = 2.0 * np.pi
    t_slow = np.arange(n_frames)[:, np.newaxis] * config.t_frame + np.arange(n_c) * config.t_pri
    # range [m] of each scatterer from one trajectory call on the flat grid
    ranges = [np.asarray(sc.trajectory(t_slow.ravel()), dtype=float).reshape(t_slow.shape)
              for sc in scene]
    _check_ranges(scene, ranges, t_slow, config.max_range)

    # fast-time sample n = split*q + m: tone[l, n] = hi[l, q] * lo[l, m]
    split = 16
    n_hi = -(-n_s // split)
    t_hi = t_fast[::split]
    lo = np.empty((n_c, split), dtype=np.complex128)
    lo[:, 0] = 1.0
    tone = np.empty((n_c, n_hi, split), dtype=np.complex128)
    tone_rows = tone.reshape(n_c, n_hi * split)[:, :n_s]

    def chirp_row(sc, t_d):
        """One chirp's n_samples of a scatterer at the fixed delay t_d."""
        return sc.amplitude * np.exp(1j * two_pi * (config.slope * t_d * t_fast + config.f_c * t_d))

    # per scatterer: the round-trip delay [s] on the [frame, chirp] grid and
    # whether it is static within each frame
    delays = [2.0 * r / C_LIGHT for r in ranges]
    still = [np.ptp(r, axis=1) == 0.0 for r in ranges]

    # the returns static within each frame, summed in scene order into one
    # chirp row (None: no static return); each distinct (scatterer, delay)
    # row is evaluated once, and frames with the same static returns share
    # one summed row
    rows, sums, static_sum = {}, {}, []
    for f in range(n_frames):
        key = tuple((s, t_d[f, 0]) for s, (t_d, static) in enumerate(zip(delays, still))
                    if static[f])
        if key not in sums:
            total = None
            for s, d in key:
                if (s, d) not in rows:
                    rows[s, d] = chirp_row(scene[s], d)
                total = rows[s, d] if total is None else total + rows[s, d]
            sums[key] = total
        static_sum.append(sums[key])

    cube = np.zeros((n_frames, n_c, n_s), dtype=np.complex128)
    if noise_sigma > 0.0:
        noise = np.empty((2, n_c, n_s))
        scale = noise_sigma / np.sqrt(2.0)
    for f in range(n_frames):
        frame_sum = cube[f]  # the frame is summed where it is stored
        for sc, t_d, static in zip(scene, delays, still):
            if static[f]:
                continue
            # hi: the tone at n = split*q, by the per-element formula; lo:
            # powers of the fast-time step exp(j*alpha) by repeated doubling,
            # lo[:, w:2w] = lo[:, :w] * step**w for w = 1, 2, 4, 8
            d = t_d[f]
            phase_hi = config.slope * np.outer(d, t_hi) + config.f_c * d[:, np.newaxis]
            hi = sc.amplitude * np.exp(1j * two_pi * phase_hi)
            step = np.exp(1j * (two_pi * config.slope / config.f_s) * d)[:, np.newaxis]
            w = 1
            while w < split:
                np.multiply(lo[:, :w], step, out=lo[:, w : 2 * w])
                step = step * step
                w *= 2
            np.multiply(hi[:, :, np.newaxis], lo[:, np.newaxis, :], out=tone)
            frame_sum += tone_rows
        if static_sum[f] is not None:
            frame_sum += static_sum[f]
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
