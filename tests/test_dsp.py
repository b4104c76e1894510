import numpy as np
import pytest

from helpers import RANGE_RESOLUTION, doppler_resolution, linear_scatterer
from rfdm.dsp import (
    RfdmSequence,
    condition_rfdm,
    cube_to_rfdm,
    dft_oracle,
    doppler_process,
    fft,
    mti_filter,
    next_pow2,
    range_compress,
)
from rfdm.errors import ShapeError
from rfdm.radar import F_S, RadarConfig, static_scatterer, synthesize_cube

CFG = RadarConfig()


def max_rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


class TestOracle:
    def test_impulse(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        assert np.allclose(dft_oracle(x), np.ones(8), atol=1e-12)

    def test_single_tone_orthogonality(self):
        n = 16
        for m in [0, 1, 5, 15]:
            x = np.exp(2j * np.pi * m * np.arange(n) / n)
            spec = dft_oracle(x)
            expect = np.zeros(n, dtype=complex)
            expect[m] = n
            assert np.max(np.abs(spec - expect)) < 1e-12 * n

    def test_dc_vector(self):
        assert np.allclose(dft_oracle(np.ones(4)), [4, 0, 0, 0], atol=1e-12)


class TestFft:
    @pytest.mark.parametrize("n", list(range(1, 17)) + [112, 124, 128, 256])
    def test_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(6):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert max_rel(fft(x), dft_oracle(x)) < 1e-9

    # (input length, padded n, first bin, bin count): padding, negative
    # starts (the Doppler fftshift) and bins that wrap past n
    @pytest.mark.parametrize("length, n, start, count", [
        (112, 128, 0, 32), (112, 128, 96, 64), (124, 128, -16, 32), (128, 128, -64, 128),
        (1, 4, 0, 4), (5, 16, 14, 6), (7, 7, -3, 10), (100, 256, 250, 12), (16, 16, 0, None),
    ])
    def test_pruned_matches_numpy_and_oracle(self, length, n, start, count):
        rng = np.random.default_rng(length + n)
        x = rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length))
        bins = (start + np.arange(n if count is None else count)) % n
        out = fft(x, n, start, count)
        assert max_rel(out, np.fft.fft(x, n)[:, bins]) < 1e-12
        padded = np.concatenate((x, np.zeros((3, n - length))), axis=1)
        for row, got in zip(padded, out):
            assert max_rel(got, dft_oracle(row)[bins]) < 1e-12

    @pytest.mark.parametrize("length, n", [(0, None), (0, 4), (8, 4), (5, 1)])
    def test_bad_lengths_rejected(self, length, n):
        with pytest.raises(ShapeError):
            fft(np.zeros(length), n)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        n = 112
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = 2.5 - 1j, -0.3 + 4j
        assert max_rel(fft(a * x + b * y), a * fft(x) + b * fft(y)) < 1e-9

    def test_batched_last_axis(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 16)) + 1j * rng.standard_normal((3, 4, 16))
        out = fft(x)
        for i in range(3):
            for j in range(4):
                assert max_rel(out[i, j], dft_oracle(x[i, j])) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            fft(np.zeros(0))

    def test_next_pow2(self):
        assert [next_pow2(n) for n in [1, 2, 3, 112, 124, 128]] == [1, 2, 4, 128, 128, 128]


class TestRangeCompress:
    def test_peak_bin_with_zero_padding(self):
        # a target at 5 range-resolution cells lands at bin round(5 * 128/112)
        r = 5.0 * RANGE_RESOLUTION
        cube = synthesize_cube(CFG, [static_scatterer(r)], n_frames=1)
        rc = range_compress(cube, 128)
        assert rc.shape == (1, 128, 128)
        profile = np.abs(rc[0, 0])
        assert int(np.argmax(profile)) == round(5 * 128 / 112)

    def test_pruned_equals_slice_of_full(self):
        cube = synthesize_cube(CFG, [linear_scatterer(2.0, 1.5)], n_frames=2,
                               noise_sigma=0.2, rng_seed=4)
        full = range_compress(cube, 128)
        for count in (32, 17, 8):
            pruned = range_compress(cube, count)
            assert pruned.shape == (2, 128, count)
            assert max_rel(pruned, full[:, :, :count]) < 1e-12

    def test_zero_cube_stays_zero(self):
        cube = synthesize_cube(CFG, [], n_frames=1)
        assert np.all(range_compress(cube, 128) == 0)

    def test_two_separated_targets_two_peaks(self):
        r1, r2 = 8 * RANGE_RESOLUTION, 40 * RANGE_RESOLUTION
        cube = synthesize_cube(
            CFG, [static_scatterer(r1), static_scatterer(r2)], n_frames=1
        )
        profile = np.abs(range_compress(cube, 128)[0, 0])
        b1, b2 = round(8 * 128 / 112), round(40 * 128 / 112)
        # each predicted bin is a local max over a +/-3 bin neighborhood
        for b in (b1, b2):
            lo, hi = b - 3, b + 4
            assert int(np.argmax(profile[lo:hi])) + lo == b


class TestMti:
    def test_constant_input_annihilated(self):
        x = np.full((1, 16, 4), 3.7 + 1j)
        assert np.all(mti_filter(x) == 0)

    def test_impulse_response_coefficients(self):
        x = np.zeros((1, 16, 1))
        x[0, 4, 0] = 1.0
        y = mti_filter(x)[0, :, 0]
        assert np.array_equal(y[:5], [1.0, -4.0, 6.0, -4.0, 1.0])
        assert np.all(y[5:] == 0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_annihilates_polynomials_up_to_cubic(self, degree):
        l = np.arange(32, dtype=float)
        x = (0.3 * l) ** degree
        y = mti_filter(x[np.newaxis, :, np.newaxis])
        assert np.max(np.abs(y)) <= 1e-9 * max(np.max(np.abs(x)), 1.0)

    def test_quartic_gives_constant_24(self):
        l = np.arange(32, dtype=float)
        y = mti_filter((l ** 4)[np.newaxis, :, np.newaxis])
        assert np.allclose(y, 24.0, rtol=1e-12)

    def test_short_slow_time_rejected(self):
        with pytest.raises(ShapeError, match=">= 5"):
            mti_filter(np.zeros((1, 4, 2)))


class TestDoppler:
    def test_static_target_at_center_bin(self):
        cube = synthesize_cube(CFG, [static_scatterer(5.0)], n_frames=1)
        seq = doppler_process(range_compress(cube, 128))
        t, n_r, n_d = seq.frames.shape
        assert (t, n_d) == (1, 128)
        r_bin, d_bin = np.unravel_index(np.argmax(seq.frames[0]), seq.frames[0].shape)
        assert d_bin == n_d // 2

    def test_moving_target_three_bins_positive(self):
        v = 3.0 * doppler_resolution(CFG)
        cube = synthesize_cube(CFG, [linear_scatterer(5.0, v)], n_frames=1)
        seq = doppler_process(range_compress(cube, 128))
        m = seq.frames[0]
        _, d_bin = np.unravel_index(np.argmax(m), m.shape)
        assert d_bin == m.shape[1] // 2 + 3

    def test_pruned_equals_slice_of_full(self):
        rng = np.random.default_rng(6)
        rc = rng.standard_normal((2, 124, 5)) + 1j * rng.standard_normal((2, 124, 5))
        full = doppler_process(rc).frames
        assert full.shape == (2, 5, 128)
        for start, count in [(48, 32), (0, 16), (100, 28)]:
            pruned = doppler_process(rc, start=start, count=count).frames
            assert max_rel(pruned, full[:, :, start : start + count]) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 8), (2, 8, 3, 1)])
    def test_input_other_than_frame_chirp_range_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"expected \[frame\]\[chirp\]\[range\]"):
            doppler_process(np.zeros(shape, dtype=complex))

    def test_mti_suppresses_static_clutter(self):
        clutter = [static_scatterer(r, a) for r, a in [(2.0, 1.0), (6.5, 0.5), (11.0, 0.8)]]
        cube = synthesize_cube(CFG, clutter, n_frames=1)
        rc = range_compress(cube, 128)
        without = doppler_process(rc).frames
        with_mti = doppler_process(mti_filter(rc)).frames
        assert with_mti.max() <= 1e-9 * without.max()


class TestCondition:
    def _seq(self, arr):
        return RfdmSequence(frames=np.asarray(arr, dtype=float))

    def test_all_zero_passes_through(self):
        out = condition_rfdm(self._seq(np.zeros((2, 32, 32))))
        assert out.frames.shape == (2, 32, 32)
        assert np.all(out.frames == 0)

    def test_maxnorm_peak_is_one(self):
        rng = np.random.default_rng(3)
        frames = rng.random((3, 32, 32))
        out = condition_rfdm(self._seq(frames))
        assert out.frames.max() == 1.0
        assert np.array_equal(out.frames, frames / frames.max())


class TestEndToEnd:
    def test_range_velocity_recovery_grid(self):
        # argmax of the (no-MTI, Hann-windowed) RFDM within 1 bin of prediction
        n_pad = 128
        range_bin_m = F_S * 299792458.0 / (2 * CFG.slope) / n_pad
        for r in [3.0, 41.0, 95.0]:
            for v in [-8.0, 0.0, 11.0]:
                cube = synthesize_cube(CFG, [linear_scatterer(r, v)], n_frames=1)
                seq = doppler_process(range_compress(cube, 128))
                m = seq.frames[0]
                rb, db = np.unravel_index(np.argmax(m), m.shape)
                assert abs(rb - round(r / range_bin_m)) <= 1
                assert abs(db - (64 + round(v / doppler_resolution(CFG)))) <= 1

    def test_pipeline_determinism(self):
        cube = synthesize_cube(CFG, [linear_scatterer(4.0, 2.0)], n_frames=2,
                               noise_sigma=0.3, rng_seed=9)
        a = cube_to_rfdm(cube, True, 32, 32)
        b = cube_to_rfdm(cube, True, 32, 32)
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.frames.shape == (2, 32, 32)


def reference_rfdm(cube, mti, n_range_crop, n_doppler_crop):
    """The whole chain with numpy.fft on the full maps: Hann window, zero-pad,
    range FFT, MTI, Doppler FFT, fftshift, crop and maxnorm."""
    n_s = cube.shape[2]
    rc = np.fft.fft(cube * np.hanning(n_s), n=next_pow2(n_s), axis=2)
    if mti:
        n_c = rc.shape[1]
        rc = sum(c * rc[:, 4 - i : n_c - i] for i, c in enumerate([1, -4, 6, -4, 1]))
    n_c = rc.shape[1]
    spec = np.fft.fft(rc * np.hanning(n_c)[:, None], n=next_pow2(n_c), axis=1)
    mag = np.abs(np.fft.fftshift(spec, axes=1)).transpose(0, 2, 1)
    d0 = mag.shape[2] // 2 - n_doppler_crop // 2
    crop = mag[:, :n_range_crop, d0 : d0 + n_doppler_crop]
    return crop / crop.max()


def chain_cube(far_bin=None):
    """Two near targets and, with `far_bin`, a static third one at that
    range bin, which the range crop (from bin 0) leaves out."""
    targets = [linear_scatterer(1.0, 2.0), static_scatterer(3.0)]
    if far_bin is not None:
        targets.append(static_scatterer(far_bin * CFG.max_range / next_pow2(CFG.n_samples)))
    return synthesize_cube(CFG, targets, n_frames=2, noise_sigma=0.3, rng_seed=11)


class TestPrunedChain:
    CUBE = chain_cube()

    # far_bin: the far target's range bin, beyond the crop; its leakage into
    # the kept bins must match the full transform's
    @pytest.mark.parametrize("mti", [False, True])
    @pytest.mark.parametrize("n_range_crop, n_doppler_crop, far_bin", [
        (32, 32, None), (8, 16, None), (17, 15, 40), (16, 128, 120), (128, 9, None),
    ])
    def test_matches_numpy_fft_chain(self, mti, n_range_crop, n_doppler_crop, far_bin):
        cube = self.CUBE if far_bin is None else chain_cube(far_bin)
        seq = cube_to_rfdm(cube, mti=mti, n_range_crop=n_range_crop,
                           n_doppler_crop=n_doppler_crop)
        assert seq.frames.shape == (2, n_range_crop, n_doppler_crop)
        assert seq.frames.flags.c_contiguous
        expect = reference_rfdm(cube, mti, n_range_crop, n_doppler_crop)
        assert np.max(np.abs(seq.frames - expect)) < 1e-12

    @pytest.mark.parametrize("crops", [(129, 32), (32, 129)])
    def test_oversized_crop_rejected(self, crops):
        with pytest.raises(ShapeError, match="crop"):
            cube_to_rfdm(self.CUBE, True, crops[0], crops[1])
