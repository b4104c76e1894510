import dataclasses

import numpy as np
import pytest

from helpers import (
    PAST_RADAR_KEYS,
    RANGE_RESOLUTION,
    doppler_resolution,
    linear_scatterer,
    radar_key_refusal,
)
from rfdm.dsp import dft_oracle
from rfdm.errors import ConfigError, SimulationError
from rfdm.gestures import (
    Environment,
    ScenePlacement,
    UserProfile,
    dataset_plan,
    make_gesture_scene,
    room_clutter,
    standard_benchmark_spec,
    synthesize_sample,
)
from rfdm.io import check_value
from rfdm.radar import (
    BANDWIDTH,
    C_LIGHT,
    F_C,
    F_S,
    MAX_DOPPLER_VELOCITY,
    T_FRAME,
    T_PRI,
    WAVELENGTH,
    RadarConfig,
    if_signal_sample,
    static_scatterer,
    synthesize_cube,
)
from rfdm.seeding import substream

CFG = RadarConfig()


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestDerivedQuantities:
    def test_reference_parameter_set(self):
        CFG.validate()
        assert rel_err(CFG.slope, 9.0e12) < 1e-12
        assert rel_err(CFG.max_range, 104.095) < 1e-3
        assert rel_err(MAX_DOPPLER_VELOCITY, 29.512) < 1e-3
        assert rel_err(doppler_resolution(CFG), 0.461) < 1e-3

    def test_sample_count_scaling(self):
        # the slope is BANDWIDTH / t_sample and the max range F_S*c / (2*slope):
        # halving n_samples exactly doubles the one and halves the other
        short = RadarConfig(n_samples=CFG.n_samples // 2)
        assert short.slope == 2.0 * CFG.slope
        assert short.max_range == CFG.max_range / 2.0

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            (RadarConfig(n_samples=206), "sampling window"),  # 206/F_S > T_PRI
            (RadarConfig(n_samples=0), "counts"),
            (RadarConfig(n_chirps=0), "counts"),
            (RadarConfig(n_chirps=3038), "frame"),  # 3038*T_PRI > T_FRAME
            (RadarConfig(n_chirps=100000), "frame"),
        ],
    )
    def test_invalid_config_names_invariant(self, bad, fragment):
        with pytest.raises(ConfigError, match=fragment):
            bad.validate()

    def test_largest_counts_the_timing_admits(self):
        # 205 samples fill 32.8 of the 32.92 us PRI; 3037 chirps 99.98 of
        # the 100 ms frame
        RadarConfig(n_samples=205, n_chirps=3037).validate()

    @pytest.mark.parametrize("field", PAST_RADAR_KEYS)
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_field_is_refused(self, field, value):
        # a JSON bool is no number, though Python counts it as the int 1 or 0;
        # the CLI's one type rule refuses it under a count before any
        # RadarConfig is built, and refuses a key of the fixed front end,
        # which older configs and manifests hold, whatever its value
        with pytest.raises(ConfigError) as exc:
            check_value("radar_config", {field: value}, dataclasses.asdict(CFG))
        assert str(exc.value) == radar_key_refusal("radar_config", field, value)


class TestIfSignal:
    def test_zero_range_limit_is_constant_amplitude(self):
        # t_d -> 0 gives zero beat frequency and zero phase
        sc = static_scatterer(1e-9, amplitude=0.7)
        t_fast = np.arange(CFG.n_samples) / F_S
        s = if_signal_sample(CFG, sc, t_fast, 0.0)
        assert np.allclose(s, 0.7, atol=1e-6)

    def test_beat_frequency_at_one_meter(self):
        # f_IF = k * 2R/c with k = 9.0e12 Hz/s
        f_if_expect = 9.0e12 * 2.0 * 1.0 / C_LIGHT  # 60.0415 kHz
        assert rel_err(f_if_expect, 60.04e3) < 1e-3
        sc = static_scatterer(1.0)
        t_fast = np.arange(CFG.n_samples) / F_S
        s = if_signal_sample(CFG, sc, t_fast, 0.0)
        # instantaneous frequency from the unwrapped phase slope
        dphi = np.diff(np.unwrap(np.angle(s)))
        f_meas = dphi.mean() * F_S / (2 * np.pi)
        assert rel_err(f_meas, f_if_expect) < 1e-9

    def test_two_resolution_cells_peaks_at_bin_two(self):
        sc = static_scatterer(2.0 * RANGE_RESOLUTION)
        t_fast = np.arange(CFG.n_samples) / F_S
        s = if_signal_sample(CFG, sc, t_fast, 0.0)
        spec = np.abs(dft_oracle(s))
        assert int(np.argmax(spec)) == 2

    def test_fast_time_window_enforced(self):
        sc = static_scatterer(1.0)
        with pytest.raises(ValueError, match="sampling window"):
            if_signal_sample(CFG, sc, CFG.t_sample, 0.0)


class TestSynthesis:
    def test_empty_scene_is_zero(self):
        cube = synthesize_cube(CFG, [], n_frames=2, noise_sigma=0.0, rng_seed=1)
        assert cube.shape == (2, 128, 112)
        assert np.all(cube == 0)

    def test_static_scene_has_no_slow_time_variation(self):
        cube = synthesize_cube(CFG, [static_scatterer(3.0)], n_frames=1)
        chirps = cube[0]
        assert np.array_equal(chirps, np.broadcast_to(chirps[0], chirps.shape))

    def test_superposition_is_bit_exact(self):
        a, b = static_scatterer(2.0, 0.8), linear_scatterer(5.0, 1.5, 0.6)
        both = synthesize_cube(CFG, [a, b], n_frames=2, rng_seed=7)
        only_a = synthesize_cube(CFG, [a], n_frames=2, rng_seed=7)
        only_b = synthesize_cube(CFG, [b], n_frames=2, rng_seed=7)
        assert np.array_equal(both, only_a + only_b)

    def test_determinism_same_seed_same_bytes(self):
        scene = [linear_scatterer(4.0, -2.0)]
        c1 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=42)
        c2 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=42)
        assert c1.tobytes() == c2.tobytes()
        c3 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=43)
        assert c1.tobytes() != c3.tobytes()

    def test_out_of_range_scatterer_is_reported(self):
        sc = linear_scatterer(1.0, -15.0, label="runaway")
        with pytest.raises(SimulationError, match="runaway"):
            synthesize_cube(CFG, [sc], n_frames=2)

    def test_noise_statistics(self):
        cube = synthesize_cube(CFG, [], n_frames=4, noise_sigma=2.0, rng_seed=5)
        z = cube.ravel()
        # total complex std == noise_sigma
        assert abs(np.sqrt(np.mean(np.abs(z) ** 2)) - 2.0) < 0.02


class TestSignalLaws:
    def test_beat_frequency_law_over_range_grid(self):
        # dominant fast-time DFT bin equals round(f_IF / (f_s / n_samples))
        t_fast = np.arange(CFG.n_samples) / F_S
        bin_hz = F_S / CFG.n_samples
        for frac in np.linspace(1.2, 54.3, 12):
            r = frac * bin_hz * C_LIGHT / (2 * CFG.slope)
            s = if_signal_sample(CFG, static_scatterer(r), t_fast, 0.0)
            peak = int(np.argmax(np.abs(dft_oracle(s))))
            f_if = CFG.slope * 2 * r / C_LIGHT
            assert peak == round(f_if / bin_hz)

    def test_doppler_law_over_velocity_grid(self):
        # slow-time tone frequency is 2 v / lambda
        t_slow = np.arange(CFG.n_chirps) * T_PRI
        for v in [-20.0, -7.5, -1.0, 2.5, 12.0, 25.0]:
            sc = linear_scatterer(10.0, v)
            r = sc.trajectory(t_slow)
            tone = np.exp(1j * 4 * np.pi * r / WAVELENGTH)
            spec = np.abs(dft_oracle(tone))
            peak = int(np.argmax(spec))
            f_d = 2 * v / WAVELENGTH
            expect = round(f_d * CFG.n_chirps * T_PRI) % CFG.n_chirps
            assert min(abs(peak - expect), CFG.n_chirps - abs(peak - expect)) <= 1


def reference_cube(config, scene, n_frames, noise_sigma=0.0, rng_seed=0):
    """The per-element synthesis `synthesize_cube` replaced: one trajectory
    call and one [n_chirps, n_samples] complex exponential per moving
    scatterer per frame, and noise formed as scale * (a + 1j*b)."""
    n_c, n_s = config.n_chirps, config.n_samples
    t_fast = np.arange(n_s) / F_S
    chirp_starts = np.arange(n_c) * T_PRI
    two_pi = 2.0 * np.pi
    cube = np.zeros((n_frames, n_c, n_s), dtype=np.complex128)
    for f in range(n_frames):
        t_slow = f * T_FRAME + chirp_starts
        frame_sum = np.zeros((n_c, n_s), dtype=np.complex128)
        for sc in scene:
            r = np.asarray(sc.trajectory(t_slow), dtype=float)
            bad = (r <= 0.0) | (r >= config.max_range)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise SimulationError(
                    "scatterer %r at R=%.3f m outside (0, %.3f m) at t=%.6f s"
                    % (sc.label or "?", r[i], config.max_range, t_slow[i])
                )
            t_d = 2.0 * r / C_LIGHT
            if np.ptp(r) == 0.0:
                row = sc.amplitude * np.exp(
                    1j * two_pi * (config.slope * t_d[0] * t_fast + F_C * t_d[0])
                )
                frame_sum += row[np.newaxis, :]
            else:
                phase = two_pi * (
                    config.slope * np.outer(t_d, t_fast) + F_C * t_d[:, np.newaxis]
                )
                frame_sum += sc.amplitude * np.exp(1j * phase)
        if noise_sigma > 0.0:
            rng = substream(rng_seed, "noise", f)
            scale = noise_sigma / np.sqrt(2.0)
            noise = scale * (rng.standard_normal((n_c, n_s)) + 1j * rng.standard_normal((n_c, n_s)))
            cube[f] = frame_sum + noise
        else:
            cube[f] = frame_sum
    return cube


def rounding_bound(config, moving, max_range):
    """8 eps times the largest IF phase [rad] of the moving scatterers, per
    unit of their summed amplitude. The split-exponent tone measured at most
    3.5 eps * |phase| over linear scatterers at 0.3-100 m."""
    max_phase = 2.0 * np.pi * (F_C + BANDWIDTH) * 2.0 * max_range / C_LIGHT
    return 8.0 * np.finfo(float).eps * max_phase * sum(sc.amplitude for sc in moving)


def _hand_scene(seed=3):
    placement = ScenePlacement(1.2, 20.0, Environment.OFFICE)
    hand = make_gesture_scene("Circle", placement, UserProfile(), seed, CFG,
                              duration=0.4)
    return hand, room_clutter(placement)


class TestSynthesisMatchesReference:
    """`synthesize_cube` against the per-element formula above."""

    @pytest.mark.parametrize("noise_sigma", [0.0, 1.0])
    @pytest.mark.parametrize(
        "moving, max_range",
        [
            ([linear_scatterer(0.3, 1.5)], 0.31),
            ([linear_scatterer(1.0, -0.5, 0.7)], 1.0),
            ([linear_scatterer(10.0, 1.5)], 10.01),
            ([linear_scatterer(100.0, -3.0)], 100.0),
            (_hand_scene()[0], 1.3),
        ],
        ids=["0.3m", "1m", "10m", "100m", "hand"],
    )
    def test_moving_within_rounding_bound(self, moving, max_range, noise_sigma):
        got = synthesize_cube(CFG, moving, n_frames=3, noise_sigma=noise_sigma, rng_seed=11)
        want = reference_cube(CFG, moving, 3, noise_sigma, 11)
        assert np.abs(got - want).max() <= rounding_bound(CFG, moving, max_range)

    @pytest.mark.parametrize("noise_sigma", [0.0, 1.0])
    def test_mixed_scene_within_rounding_bound(self, noise_sigma):
        hand, clutter = _hand_scene()
        scene = clutter[:2] + hand + clutter[2:]
        got = synthesize_cube(CFG, scene, n_frames=4, noise_sigma=noise_sigma, rng_seed=5)
        want = reference_cube(CFG, scene, 4, noise_sigma, 5)
        assert np.abs(got - want).max() <= rounding_bound(CFG, hand, 1.3)

    @pytest.mark.parametrize("noise_sigma", [0.0, 1.0])
    def test_hand_static_in_some_frames_within_rounding_bound(self, noise_sigma):
        # a jitter-free hand holds still outside the gesture's active window,
        # at one range before it and another after; its range is not one
        # value over the cube, so every frame takes the moving tones, also
        # where the reference takes the per-frame static row
        placement = ScenePlacement(0.75, 0.0, Environment.CLASSROOM)
        hand = make_gesture_scene("Push", placement, UserProfile(jitter_sigma=0.0),
                                  5, CFG, duration=16 * T_FRAME)
        t_slow = np.arange(16)[:, np.newaxis] * T_FRAME + np.arange(CFG.n_chirps) * T_PRI
        ranges = np.stack([sc.trajectory(t_slow) for sc in hand])
        still = np.ptp(ranges, axis=2) == 0.0
        assert still.all(axis=0).sum() >= 4 and (~still).all(axis=0).sum() >= 4
        assert np.unique(ranges[:, still.all(axis=0), 0], axis=1).shape[1] == 2
        scene = hand + room_clutter(placement)
        got = synthesize_cube(CFG, scene, n_frames=16, noise_sigma=noise_sigma, rng_seed=8)
        want = reference_cube(CFG, scene, 16, noise_sigma, 8)
        assert np.abs(got - want).max() <= rounding_bound(CFG, hand, ranges.max())

    def test_standard_benchmark_scene_within_rounding_bound(self):
        # one 16-frame scene of the benchmark's spec: a jittered hand (every
        # frame moving) and the 12 clutter scatterers of the office, sigma 1
        spec = standard_benchmark_spec(instances=1)
        row = next(r for r in dataset_plan(spec, rng_seed=17)
                   if r["user_id"] == 2 and r["location_id"] == 1)
        placement = spec.placements[1]
        hand = make_gesture_scene(row["class_name"], placement,
                                  spec.users[2], row["seed"], CFG,
                                  duration=spec.n_frames * T_FRAME)
        scene = hand + room_clutter(placement)
        got = synthesize_sample(spec, row, CFG)
        assert np.array_equal(got, synthesize_cube(CFG, scene, spec.n_frames, 1.0, row["seed"]))
        want = reference_cube(CFG, scene, spec.n_frames, 1.0, row["seed"])
        assert np.abs(got - want).max() <= rounding_bound(CFG, hand, 1.3)

    def test_every_sixteenth_sample_is_exact(self):
        # hi[l, q] is the per-element formula at n = 16*q, and lo[l, 0] == 1
        sc = [linear_scatterer(2.0, 0.8, 0.6)]
        got = synthesize_cube(CFG, sc, n_frames=2)
        want = reference_cube(CFG, sc, 2)
        assert np.array_equal(got[:, :, ::16], want[:, :, ::16])

    def test_noise_only_cube_is_bit_exact(self):
        got = synthesize_cube(CFG, [], n_frames=3, noise_sigma=1.7, rng_seed=9)
        assert np.array_equal(got, reference_cube(CFG, [], 3, 1.7, 9))

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_static_only_cube_is_bit_exact(self, noise_sigma):
        scene = room_clutter(ScenePlacement(0.75, 0.0, Environment.CLASSROOM))
        got = synthesize_cube(CFG, scene, n_frames=3, noise_sigma=noise_sigma, rng_seed=4)
        assert np.array_equal(got, reference_cube(CFG, scene, 3, noise_sigma, 4))

    def test_out_of_range_names_first_bad_chirp(self):
        # "late" leaves the range in frame 3, "early" at the first chirp of
        # frame 1: the error names the first bad chirp in frame order, as
        # the reference does, though "late" comes first in the scene
        scene = [
            static_scatterer(2.0, label="wall"),
            linear_scatterer(1.0, -4.0, label="late"),
            linear_scatterer(0.25, -3.0, label="early"),
        ]
        with pytest.raises(SimulationError) as want:
            reference_cube(CFG, scene, 4)
        with pytest.raises(SimulationError) as got:
            synthesize_cube(CFG, scene, n_frames=4)
        assert str(got.value) == str(want.value)
        assert "'early'" in str(got.value) and "t=0.100000 s" in str(got.value)
