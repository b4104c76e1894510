"""Parametric hand-gesture scenes: labeled trajectories plus static clutter.

Seven gesture classes are realized as radial range templates, since a
range-Doppler pipeline only observes radial motion. A class is its name:
`GESTURE_CLASSES` holds the seven names in class-id order, the one class
list of the package, and a name keys its template, one row of
`_TEMPLATES`: an extent times a unit offset curve of the gesture's
progress, added to the placement's base range and active over a centered
sub-window of the gesture, so swipe pairs are exact time reversals of each
other and push/pull are exact range mirrors. Tangential motions (the four
swipes) project onto the radar line of sight with a cos(azimuth) factor.
A trajectory gives range only: its velocity is the slope of that range,
which the scene check samples and the synthesized chirp phase carries.

A hand is modeled as 3..5 point scatterers with small static range offsets
and low-frequency positional jitter; environments contribute preset counts
of static clutter scatterers. A scene is a plain list of scatterers:
`make_gesture_scene` returns the hand's, `room_clutter` the room's, and
`synthesize_sample` synthesizes the two, hand first, into the complex128
[frame, chirp, sample] cube array.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PlacementError, SimulationError
from .radar import (
    MAX_DOPPLER_VELOCITY,
    T_FRAME,
    RadarConfig,
    Scatterer,
    static_scatterer,
    synthesize_cube,
)
from .seeding import child_seed, name_key, substream


class Environment(enum.Enum):
    CLASSROOM = "Classroom"
    OFFICE = "Office"
    CONFERENCE_HALL = "ConferenceHall"

    @classmethod
    def from_name(cls, name: str) -> "Environment":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(f"unknown environment {name!r}") from None


# clutter scatterer count and base reflectivity per environment
ENVIRONMENT_CLUTTER = {
    Environment.CLASSROOM: (8, 0.5),
    Environment.OFFICE: (12, 0.8),
    Environment.CONFERENCE_HALL: (4, 0.3),
}


@dataclass(frozen=True)
class ScenePlacement:
    base_range: float = 0.75      # m
    azimuth_deg: float = 0.0
    environment: Environment = Environment.CLASSROOM

    def validate(self) -> None:
        if not (0.3 <= self.base_range <= 2.0):
            raise ConfigError(f"base_range {self.base_range} outside [0.3, 2.0] m")
        if abs(self.azimuth_deg) > 60.0:
            raise ConfigError(f"|azimuth| {self.azimuth_deg} exceeds 60 deg")


@dataclass(frozen=True)
class UserProfile:
    speed_scale: float = 1.0      # multiplies trajectory velocity
    amplitude_scale: float = 1.0  # multiplies echo amplitude
    extent_scale: float = 1.0     # multiplies motion extent
    jitter_sigma: float = 0.002   # per-chirp positional jitter std [m]

    def validate(self) -> None:
        for name in ("speed_scale", "amplitude_scale", "extent_scale"):
            v = getattr(self, name)
            if not (0.5 <= v <= 1.5):
                raise ConfigError(f"{name} {v} outside [0.5, 1.5]")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")


def _smoothstep(p):
    return p * p * (3.0 - 2.0 * p)


def _two_bursts(p):
    """A smoothstep's net drift, executed as two faster bursts."""
    return 0.5 * (_smoothstep(np.clip(2.0 * p, 0.0, 1.0))
                  + _smoothstep(np.clip(2.0 * p - 1.0, 0.0, 1.0)))


# gesture name: (extent [m], active fraction of the gesture window,
# tangential?, unit offset curve of the progress p in [0, 1]); the row order
# is the class-id order. The offset is extent times the curve; short active windows keep peak
# radial speeds in the 0.5..1.2 m/s band, a few Doppler bins at the reference
# chirp timing.
_TEMPLATES = {
    "SwipeLeft": (0.10, 0.35, True, lambda p: np.sin(2 * np.pi * p)),
    "SwipeRight": (0.10, 0.35, True, lambda p: -np.sin(2 * np.pi * p)),
    # one slow smooth drift toward the radar; the same drift away in two bursts
    "SwipeUp": (0.05, 0.5, True, lambda p: -_smoothstep(p)),
    "SwipeDown": (0.05, 0.5, True, _two_bursts),
    "Push": (0.15, 0.3, False, lambda p: 1.0 - 2.0 * p),
    "Pull": (0.15, 0.3, False, lambda p: -(1.0 - 2.0 * p)),
    "Circle": (0.08, 0.5, False, lambda p: -(1.0 - np.cos(2 * np.pi * p))),
}
# the class names, indexed by class id
GESTURE_CLASSES = tuple(_TEMPLATES)
N_CLASSES = len(GESTURE_CLASSES)


def template_trace(
    gesture: str,
    t,
    duration: float,
    extent_scale: float = 1.0,
    speed_scale: float = 1.0,
    cos_az: float = 1.0,
):
    """Radial offset [m] of a gesture template at times t [s].

    The active motion occupies a window of the gesture duration centered at
    duration/2 and shortened by speed_scale; outside it the hand holds its
    boundary position.
    """
    extent, frac, tangential, unit = _TEMPLATES[gesture]
    amp = extent * extent_scale * (cos_az if tangential else 1.0)
    frac = min(frac / speed_scale, 1.0)
    u0 = 0.5 * (1.0 - frac)
    p = np.clip((np.asarray(t, dtype=float) / duration - u0) / frac, 0.0, 1.0)
    return amp * unit(p)


def _jitter_components(rng: np.random.Generator, sigma: float):
    """Three seeded sinusoids with total std == sigma (deterministic jitter)."""
    freqs = rng.uniform(2.0, 8.0, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)
    raw = rng.uniform(0.5, 1.0, size=3)
    amps = raw * (sigma / math.sqrt(np.sum(raw**2) / 2.0))
    return freqs, phases, amps


def make_gesture_scene(
    gesture: str,
    placement: ScenePlacement,
    user: UserProfile,
    rng_seed: int,
    config: RadarConfig,
    duration: float = 1.6,
) -> list:
    """The hand's scatterers for one gesture instance, deterministic in
    `rng_seed`.

    Raises PlacementError if the realized hand motion would leave
    [0.3 m, max_range), or if its speed, the slope of its range between
    probe times, reaches the unambiguous Doppler velocity. `placement` and
    `user` are taken as valid: the CLI runs DatasetSpec.validate, which
    checks each of them, once, where it reads the config."""
    rng = substream(rng_seed, "scene")
    cos_az = math.cos(math.radians(placement.azimuth_deg))

    n_points = int(rng.integers(3, 6))
    offsets = rng.uniform(-0.02, 0.02, size=n_points)
    amps = user.amplitude_scale * rng.uniform(0.2, 0.4, size=n_points)
    hand = []
    for i in range(n_points):
        jf, jp, ja = _jitter_components(rng, user.jitter_sigma)

        def traj(t, _off=offsets[i], _jf=jf, _jp=jp, _ja=ja):
            base_off = template_trace(
                gesture, t, duration, user.extent_scale, user.speed_scale, cos_az
            )
            axes = (-1,) + (1,) * np.ndim(t)  # components on a leading axis, t scalar or not
            arg = 2 * np.pi * np.multiply.outer(_jf, t) + _jp.reshape(axes)
            jit = (_ja.reshape(axes) * np.sin(arg)).sum(axis=0)
            return placement.base_range + _off + base_off + jit

        hand.append(Scatterer(traj, float(amps[i]), label=f"hand{i}"))

    # verify realized hand motion stays inside the gesture zone
    probe = np.linspace(0.0, duration, 512)
    for sc in hand:
        r = sc.trajectory(probe)
        if r.min() < 0.3 or r.max() >= config.max_range:
            raise PlacementError(
                "%s at base %.2f m drives range to [%.3f, %.3f] m, outside [0.3, %.1f) m"
                % (gesture, placement.base_range, r.min(), r.max(), config.max_range)
            )
        if np.max(np.abs(np.diff(r) / np.diff(probe))) >= MAX_DOPPLER_VELOCITY:
            raise PlacementError(
                "%s exceeds the unambiguous velocity %.2f m/s" % (gesture, MAX_DOPPLER_VELOCITY)
            )

    return hand


def room_clutter(placement: ScenePlacement) -> list:
    """Static clutter for a room, deterministic in (environment, location).

    Every scene recorded at the same placement sees the same furniture; the
    layout changes only across environments and positions."""
    n_clutter, base_amp = ENVIRONMENT_CLUTTER[placement.environment]
    room_key = f"{placement.environment.value}@{placement.base_range:.3f}/{placement.azimuth_deg:.2f}"
    rng = substream(name_key(room_key) >> 1, "clutter")
    clutter = []
    for i in range(n_clutter):
        r = float(rng.uniform(0.4, 15.0))
        a = base_amp * float(rng.uniform(0.5, 1.5))
        clutter.append(static_scatterer(r, a, label=f"clutter{i}"))
    return clutter


@dataclass
class DatasetSpec:
    """Cartesian dataset layout: classes x users x placements x instances."""

    instances: int = 1
    users: tuple = (UserProfile(),)
    placements: tuple = (ScenePlacement(),)
    n_frames: int = 16
    noise_sigma: float = 1.0

    def validate(self) -> None:
        if self.instances < 1 or not self.users or not self.placements:
            raise ConfigError("dataset spec needs >= 1 instance, user and placement")
        if self.n_frames < 1:
            raise ConfigError(f"n_frames must be >= 1, got {self.n_frames}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for u in self.users:
            u.validate()
        for p in self.placements:
            p.validate()


def dataset_plan(spec: DatasetSpec, rng_seed: int) -> list:
    """Per-sample metadata for the full Cartesian product, without synthesis."""
    rows = []
    for ci, gesture in enumerate(GESTURE_CLASSES):
        for ui in range(len(spec.users)):
            for pi, placement in enumerate(spec.placements):
                for k in range(spec.instances):
                    rows.append(
                        {
                            "index": len(rows),
                            "class_name": gesture,
                            "class_id": ci,
                            "user_id": ui,
                            "location_id": pi,
                            "base_range": placement.base_range,
                            "azimuth_deg": placement.azimuth_deg,
                            "environment": placement.environment.value,
                            "instance": k,
                            "seed": child_seed(rng_seed, "sample", ci, ui, pi, k),
                        }
                    )
    return rows


def synthesize_sample(spec: DatasetSpec, row: dict, config: RadarConfig) -> np.ndarray:
    """The complex128 [frame, chirp, sample] cube of one `dataset_plan` row.

    A SimulationError from the synthesis, or a FloatingPointError (under
    the CLI's numpy error rule, noise of a gen.noise_sigma near the float64
    limit overflows), is raised as a SimulationError naming the row."""
    placement = spec.placements[row["location_id"]]
    user = spec.users[row["user_id"]]
    duration = spec.n_frames * T_FRAME
    hand = make_gesture_scene(row["class_name"], placement, user, row["seed"], config, duration)
    try:
        return synthesize_cube(config, hand + room_clutter(placement), spec.n_frames,
                               spec.noise_sigma, row["seed"])
    except (SimulationError, FloatingPointError) as exc:
        raise SimulationError(
            f"{exc} (class={row['class_name']}, user={row['user_id']}, "
            f"location={row['location_id']}, instance={row['instance']})"
        ) from exc


def standard_benchmark_spec(instances: int = 30) -> DatasetSpec:
    """The stock desk-scale benchmark: 7 classes x instances x 3 users x 3 placements."""
    users = (
        UserProfile(speed_scale=0.90, amplitude_scale=0.90, extent_scale=0.95, jitter_sigma=0.0015),
        UserProfile(speed_scale=1.00, amplitude_scale=1.00, extent_scale=1.05, jitter_sigma=0.0020),
        UserProfile(speed_scale=1.15, amplitude_scale=1.10, extent_scale=1.20, jitter_sigma=0.0030),
    )
    placements = (
        ScenePlacement(0.75, 0.0, Environment.CLASSROOM),
        ScenePlacement(1.20, 20.0, Environment.OFFICE),
        ScenePlacement(0.60, -15.0, Environment.CONFERENCE_HALL),
    )
    return DatasetSpec(instances=instances, users=users, placements=placements,
                       n_frames=16, noise_sigma=1.0)
