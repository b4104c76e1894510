import numpy as np
import pytest

from rfdm.dsp import dft_oracle
from rfdm.errors import ConfigError, SimulationError
from rfdm.radar import (
    C_LIGHT,
    DataCube,
    RadarConfig,
    derived_quantities,
    if_signal_sample,
    linear_scatterer,
    static_scatterer,
    synthesize_cube,
)

CFG = RadarConfig()


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestDerivedQuantities:
    def test_reference_parameter_set(self):
        q = derived_quantities(CFG)
        assert rel_err(q["slope"], 9.0e12) < 1e-12
        assert rel_err(q["max_range"], 104.095) < 1e-3
        assert rel_err(q["max_doppler_velocity"], 29.512) < 1e-3
        assert rel_err(q["doppler_resolution"], 0.461) < 1e-3

    def test_bandwidth_scaling(self):
        # range resolution is c/(2B): doubling B exactly halves it
        q1 = derived_quantities(CFG)
        q2 = derived_quantities(RadarConfig(B=2 * CFG.B))
        assert q2["range_resolution"] == q1["range_resolution"] / 2.0

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            (RadarConfig(f_s=1e5), "sampling window"),       # 112/f_s > t_pri
            (RadarConfig(n_samples=0), "counts"),
            (RadarConfig(B=-1.0), "frequencies"),
            (RadarConfig(t_pri=-1e-6), "times"),
            (RadarConfig(n_chirps=100000), "frame"),
        ],
    )
    def test_invalid_config_names_invariant(self, bad, fragment):
        with pytest.raises(ConfigError, match=fragment):
            derived_quantities(bad)


class TestIfSignal:
    def test_zero_range_limit_is_constant_amplitude(self):
        # t_d -> 0 gives zero beat frequency and zero phase
        sc = static_scatterer(1e-9, amplitude=0.7)
        t_fast = np.arange(CFG.n_samples) / CFG.f_s
        s = if_signal_sample(CFG, sc, t_fast, 0.0)
        assert np.allclose(s, 0.7, atol=1e-6)

    def test_beat_frequency_at_one_meter(self):
        # f_IF = k * 2R/c with k = 9.0e12 Hz/s
        f_if_expect = 9.0e12 * 2.0 * 1.0 / C_LIGHT  # 60.0415 kHz
        assert rel_err(f_if_expect, 60.04e3) < 1e-3
        sc = static_scatterer(1.0)
        t_fast = np.arange(CFG.n_samples) / CFG.f_s
        s = if_signal_sample(CFG, sc, t_fast, 0.0)
        # instantaneous frequency from the unwrapped phase slope
        dphi = np.diff(np.unwrap(np.angle(s)))
        f_meas = dphi.mean() * CFG.f_s / (2 * np.pi)
        assert rel_err(f_meas, f_if_expect) < 1e-9

    def test_two_resolution_cells_peaks_at_bin_two(self):
        sc = static_scatterer(2.0 * CFG.range_resolution)
        t_fast = np.arange(CFG.n_samples) / CFG.f_s
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
        assert cube.samples.shape == (2, 128, 112, 1)
        assert np.all(cube.samples == 0)

    def test_static_scene_has_no_slow_time_variation(self):
        cube = synthesize_cube(CFG, [static_scatterer(3.0)], n_frames=1)
        chirps = cube.samples[0, :, :, 0]
        assert np.array_equal(chirps, np.broadcast_to(chirps[0], chirps.shape))

    def test_superposition_is_bit_exact(self):
        a, b = static_scatterer(2.0, 0.8), linear_scatterer(5.0, 1.5, 0.6)
        both = synthesize_cube(CFG, [a, b], n_frames=2, rng_seed=7)
        only_a = synthesize_cube(CFG, [a], n_frames=2, rng_seed=7)
        only_b = synthesize_cube(CFG, [b], n_frames=2, rng_seed=7)
        assert np.array_equal(both.samples, only_a.samples + only_b.samples)

    def test_determinism_same_seed_same_bytes(self):
        scene = [linear_scatterer(4.0, -2.0)]
        c1 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=42)
        c2 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=42)
        assert c1.samples.tobytes() == c2.samples.tobytes()
        c3 = synthesize_cube(CFG, scene, n_frames=2, noise_sigma=0.5, rng_seed=43)
        assert c1.samples.tobytes() != c3.samples.tobytes()

    def test_out_of_range_scatterer_is_reported(self):
        sc = linear_scatterer(1.0, -15.0, label="runaway")
        with pytest.raises(SimulationError, match="runaway"):
            synthesize_cube(CFG, [sc], n_frames=2)

    def test_noise_statistics(self):
        cube = synthesize_cube(CFG, [], n_frames=4, noise_sigma=2.0, rng_seed=5)
        z = cube.samples.ravel()
        # total complex std == noise_sigma
        assert abs(np.sqrt(np.mean(np.abs(z) ** 2)) - 2.0) < 0.02

    def test_cube_validation(self):
        cube = synthesize_cube(CFG, [], n_frames=1)
        cube.validate()
        bad = DataCube(config=CFG, samples=cube.samples[:, :10], n_frames=1)
        with pytest.raises(ConfigError, match="shape"):
            bad.validate()


class TestSignalLaws:
    def test_beat_frequency_law_over_range_grid(self):
        # dominant fast-time DFT bin equals round(f_IF / (f_s / n_samples))
        t_fast = np.arange(CFG.n_samples) / CFG.f_s
        bin_hz = CFG.f_s / CFG.n_samples
        for frac in np.linspace(1.2, 54.3, 12):
            r = frac * bin_hz * C_LIGHT / (2 * CFG.slope)
            s = if_signal_sample(CFG, static_scatterer(r), t_fast, 0.0)
            peak = int(np.argmax(np.abs(dft_oracle(s))))
            f_if = CFG.slope * 2 * r / C_LIGHT
            assert peak == round(f_if / bin_hz)

    def test_doppler_law_over_velocity_grid(self):
        # slow-time tone frequency is 2 v / lambda
        t_slow = np.arange(CFG.n_chirps) * CFG.t_pri
        for v in [-20.0, -7.5, -1.0, 2.5, 12.0, 25.0]:
            sc = linear_scatterer(10.0, v)
            r, _ = sc.trajectory(t_slow)
            tone = np.exp(1j * 4 * np.pi * r / CFG.wavelength)
            spec = np.abs(dft_oracle(tone))
            peak = int(np.argmax(spec))
            f_d = 2 * v / CFG.wavelength
            expect = round(f_d * CFG.n_chirps * CFG.t_pri) % CFG.n_chirps
            assert min(abs(peak - expect), CFG.n_chirps - abs(peak - expect)) <= 1
