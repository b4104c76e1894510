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

`synthesize_cube` evaluates each trajectory once on the [frame, chirp]
slow-time grid. A scatterer that is static within a frame costs one row of
n_samples exponentials. For a moving one, fast-time sample n = 16*q + m of
chirp l is the product

    hi[l, q] = A * exp(j * 2*pi*(k*t_d[l]*(16*q/f_s) + f_c*t_d[l]))
    lo[l, m] = exp(j * alpha_l * m),   alpha_l = 2*pi*k*t_d[l]/f_s,

so a chirp of 112 samples takes 7 + 16 exponentials instead of 112. The
samples at n = 16*q equal the per-element formula's bit for bit; the others
differ from it at the phase's own rounding level: by at most 3.5 * eps *
|phase| per unit of amplitude over ranges 0.3-100 m (1.5e-12 at 1 m, where
the phase is 3.2e3 rad), checked against that formula with a bound of
8 * eps * |phase| in tests/test_radar.py. Noise is the same pair of
standard-normal draws a, b per frame, scaled in place; scaling each part by
the real sigma/sqrt(2) rounds as the complex product sigma/sqrt(2) * (a + j*b)
does, so noise samples are bit-exact.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, SimulationError
from .seeding import substream

C_LIGHT = 299_792_458.0  # propagation speed [m/s]

# Trajectory: vectorized time [s] -> (range [m], radial velocity [m/s]).
# Positive velocity = increasing range (receding).
Trajectory = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class RadarConfig:
    """Chirp/frame parameters of the simulated FMCW front end."""

    f_c: float = 77.144e9      # carrier frequency [Hz]
    B: float = 161.28e6        # bandwidth swept during the sampling window [Hz]
    f_s: float = 6.25e6        # ADC sampling frequency [Hz]
    n_samples: int = 112       # fast-time samples per chirp
    n_chirps: int = 128        # chirps per frame
    t_pri: float = 32.92e-6    # pulse repetition interval [s]
    t_frame: float = 100e-3    # frame period [s]
    n_rx: int = 1              # receive channels (1..4 supported by the cube format)

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
    def range_resolution(self) -> float:
        return C_LIGHT / (2.0 * self.B)

    @property
    def max_range(self) -> float:
        """Range where the beat frequency reaches f_s [m]."""
        return self.f_s * C_LIGHT / (2.0 * self.slope)

    @property
    def max_doppler_velocity(self) -> float:
        """Unambiguous radial velocity span is +/- this value [m/s]."""
        return self.wavelength / (4.0 * self.t_pri)

    @property
    def doppler_resolution(self) -> float:
        """Velocity bin width of a full-frame Doppler FFT [m/s]."""
        return self.wavelength / (2.0 * self.n_chirps * self.t_pri)

    def validate(self) -> None:
        if not (self.f_c > 0 and self.B > 0 and self.f_s > 0):
            raise ConfigError("frequencies must be positive (f_c, B, f_s > 0)")
        if not (self.t_pri > 0 and self.t_frame > 0):
            raise ConfigError("times must be positive (t_pri, t_frame > 0)")
        if self.n_samples < 1 or self.n_chirps < 1 or self.n_rx < 1:
            raise ConfigError("counts must be >= 1 (n_samples, n_chirps, n_rx)")
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


def derived_quantities(config: RadarConfig) -> dict:
    """Resolution/ambiguity numbers implied by a chirp configuration."""
    config.validate()
    return {
        "slope": config.slope,
        "range_resolution": config.range_resolution,
        "max_range": config.max_range,
        "wavelength": config.wavelength,
        "max_doppler_velocity": config.max_doppler_velocity,
        "doppler_resolution": config.doppler_resolution,
    }


@dataclass
class Scatterer:
    """A point scatterer with a radial trajectory and fixed echo amplitude."""

    trajectory: Trajectory
    amplitude: float = 1.0
    label: str = ""  # used in error messages only


def static_scatterer(range_m: float, amplitude: float = 1.0, label: str = "") -> Scatterer:
    def traj(t: np.ndarray):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, range_m), np.zeros_like(t)

    return Scatterer(traj, amplitude, label or f"static@{range_m:.2f}m")


def linear_scatterer(r0: float, v: float, amplitude: float = 1.0, label: str = "") -> Scatterer:
    """Constant radial velocity, R(t) = r0 + v*t."""

    def traj(t: np.ndarray):
        t = np.asarray(t, dtype=float)
        return r0 + v * t, np.full_like(t, v)

    return Scatterer(traj, amplitude, label or f"linear@{r0:.2f}m{v:+.2f}m/s")


def if_signal_sample(config: RadarConfig, scatterer: Scatterer, t_fast, t_slow) -> complex:
    """Complex IF sample of one scatterer at fast time t_fast within the chirp
    starting at slow time t_slow. Accepts scalars or broadcastable arrays."""
    t_fast = np.asarray(t_fast, dtype=float)
    if np.any(t_fast < 0) or np.any(t_fast >= config.t_sample):
        raise ValueError(
            "t_fast outside the sampling window [0, %.4g s)" % config.t_sample
        )
    r, _ = scatterer.trajectory(np.asarray(t_slow, dtype=float))
    t_d = 2.0 * r / C_LIGHT
    phase = 2.0 * np.pi * (config.slope * t_d * t_fast + config.f_c * t_d)
    out = scatterer.amplitude * np.exp(1j * phase)
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass
class DataCube:
    """Raw complex IF samples indexed [frame][chirp][sample][rx]."""

    config: RadarConfig
    samples: np.ndarray  # complex128 [n_frames, n_chirps, n_samples, n_rx]
    n_frames: int = 16

    def validate(self) -> None:
        expect = (self.n_frames, self.config.n_chirps, self.config.n_samples, self.config.n_rx)
        if self.samples.shape != expect:
            raise ConfigError(f"cube shape {self.samples.shape} does not match config {expect}")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ConfigError("cube contains non-finite samples")


def synthesize_cube(
    config: RadarConfig,
    scene,
    n_frames: int = 16,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> DataCube:
    """Sum the IF returns of every scatterer in `scene` over an n_frames cube,
    plus circular complex Gaussian noise of total std `noise_sigma`.

    Chirp l of frame f is evaluated at t_slow = f*t_frame + l*t_pri; the
    remainder of each frame period is idle. Noise is drawn from a per-frame
    sub-stream of `rng_seed`, so per-frame parallel synthesis would produce
    identical output.
    """
    config.validate()
    n_c, n_s, n_rx = config.n_chirps, config.n_samples, config.n_rx
    t_fast = np.arange(n_s) / config.f_s
    two_pi = 2.0 * np.pi
    t_slow = np.arange(n_frames)[:, np.newaxis] * config.t_frame + np.arange(n_c) * config.t_pri
    # range [m] of each scatterer from one trajectory call on the flat grid
    ranges = [np.asarray(sc.trajectory(t_slow.ravel())[0], dtype=float).reshape(t_slow.shape)
              for sc in scene]
    _check_ranges(scene, ranges, t_slow, config.max_range)

    # fast-time sample n = split*q + m: tone[l, n] = hi[l, q] * lo[l, m]
    split = 16
    n_hi = -(-n_s // split)
    m_lo = np.arange(split)
    t_hi = t_fast[::split]
    tone = np.empty((n_c, n_hi, split), dtype=np.complex128)
    tone_rows = tone.reshape(n_c, n_hi * split)[:, :n_s]

    cube = np.zeros((n_frames, n_c, n_s, n_rx), dtype=np.complex128)
    if noise_sigma > 0.0:
        noise = np.empty((2, n_c, n_s, n_rx))
        scale = noise_sigma / np.sqrt(2.0)
    for f in range(n_frames):
        frame_sum = np.zeros((n_c, n_s), dtype=np.complex128)
        for sc, r in zip(scene, ranges):
            t_d = 2.0 * r[f] / C_LIGHT
            if np.ptp(r[f]) == 0.0:
                # static within the frame: one chirp row serves all chirps
                row = sc.amplitude * np.exp(
                    1j * two_pi * (config.slope * t_d[0] * t_fast + config.f_c * t_d[0])
                )
                frame_sum += row[np.newaxis, :]
            else:
                # hi: the tone at n = split*q, by the per-element formula;
                # lo: m steps of the fast-time phase increment alpha
                phase_hi = config.slope * np.outer(t_d, t_hi) + config.f_c * t_d[:, np.newaxis]
                hi = sc.amplitude * np.exp(1j * two_pi * phase_hi)
                alpha = (two_pi * config.slope / config.f_s) * t_d
                lo = np.exp(1j * np.multiply.outer(alpha, m_lo))
                np.multiply(hi[:, :, np.newaxis], lo[:, np.newaxis, :], out=tone)
                frame_sum += tone_rows
        if noise_sigma > 0.0:
            # Generator fills only contiguous arrays: the real and imaginary
            # draws go to one reused buffer and are added into the cube parts
            rng = substream(rng_seed, "noise", f)
            rng.standard_normal(out=noise[0])
            rng.standard_normal(out=noise[1])
            noise *= scale
            parts = cube[f].view(np.float64).reshape(n_c, n_s, n_rx, 2)
            np.add(noise[0], frame_sum.real[:, :, np.newaxis], out=parts[..., 0])
            np.add(noise[1], frame_sum.imag[:, :, np.newaxis], out=parts[..., 1])
        else:
            cube[f] = frame_sum[:, :, np.newaxis]

    return DataCube(config=config, samples=cube, n_frames=n_frames)


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
