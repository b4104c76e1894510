"""Preprocessing chain: range FFT, 4th-order MTI, Doppler FFT, RFDM conditioning.

One chain, fixed: its input is the complex128 [frame, chirp, sample]
cube array, both transforms apply a Hann window, the range crop starts at
bin 0 (the near-field gesture zone), MTI differences along chirp axis 1,
Doppler is centre-cropped around zero velocity, and conditioning divides by
the sequence maximum. The MTI stage is the only optional step; whether it
runs and the two crop sizes are the caller's (the `preprocess` config
section).

The DFT is a pruned one (FFT pruning, Markel 1971): zero-padding, the
fftshift and the crop are linear, so each transform multiplies the windowed
input by a cached [length, count] DFT matrix that computes only the bins the
crop keeps (32 of 128 range and 32 of 128 Doppler bins by default). The
crop is placed once, by `cube_to_rfdm`, and conditioning only scales the
kept bins. The DFT is verified in the test suite against `dft_oracle`, the
literal O(N^2) transform, and against numpy.fft. Transforms operate along
the last axis of an arbitrary-rank array as one 2-D GEMM, so the cube
pipeline stays vectorized.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError

# ---------------------------------------------------------------------------
# Discrete Fourier transforms
# ---------------------------------------------------------------------------


def dft_oracle(x: np.ndarray) -> np.ndarray:
    """X(k) = sum_n x(n) exp(-j 2 pi k n / N), evaluated as the direct sum.

    Reference implementation for validating `fft`; O(N^2), vectors only.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ x


@lru_cache(maxsize=64)
def _dft_matrix(length: int, n: int, start: int, count: int) -> np.ndarray:
    """[length, count] matrix whose column k is DFT bin (start + k) mod n."""
    bins = (start + np.arange(count)) % n
    # exponent mod n keeps the phase exact for large length * bin products
    m = np.exp(-2j * np.pi * (np.outer(np.arange(length), bins) % n) / n)
    m.flags.writeable = False
    return m


def fft(x: np.ndarray, n: int | None = None, start: int = 0, count: int | None = None) -> np.ndarray:
    """Pruned DFT along the last axis, evaluated as one GEMM.

    Equal to `np.fft.fft(x, n)[..., (start + arange(count)) % n]`: the input
    is zero-padded to length `n` (default: its own length) and only `count`
    bins (default: all `n`) are computed, starting at bin `start`, which may
    be negative or wrap past `n`. The input is not empty and `n` is not
    shorter than it: the callers pad to next_pow2 of a length that
    check_crop has bounded.
    """
    x = np.asarray(x, dtype=np.complex128)
    length = x.shape[-1]
    n = length if n is None else int(n)
    count = n if count is None else int(count)
    w = _dft_matrix(length, n, int(start), count)
    return (x.reshape(-1, length) @ w).reshape(x.shape[:-1] + (count,))


def next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length() if n > 1 else 1


# ---------------------------------------------------------------------------
# Cube pipeline
# ---------------------------------------------------------------------------


def range_compress(cube: np.ndarray, count: int) -> np.ndarray:
    """Fast-time FFT per chirp: [frame][chirp][sample] -> [frame][chirp][range_bin].

    The fast-time axis is Hann-windowed then zero-padded to the next power
    of two (112 -> 128 with the default config), so range bin b maps to
    beat frequency b * f_s / n_padded. Only range bins 0 .. count - 1 are
    computed. The cube is not checked again here: `io.read_cube` has checked
    the shape and values of every cube that `rfdm preprocess` transforms.
    """
    n_s = cube.shape[2]
    return fft(cube * np.hanning(n_s), next_pow2(n_s), count=count)


def mti_filter(rc: np.ndarray) -> np.ndarray:
    """4th-order moving-target-indication difference along chirp axis 1.

    y(l) = x(l) - 4 x(l-1) + 6 x(l-2) - 4 x(l-3) + x(l-4) for l = 4..L-1,
    so the output is 4 shorter than the input, which check_crop has
    required to leave at least 2 chirps. Annihilates slow-time polynomials
    up to cubic, in particular all static (DC) returns.
    """
    # symmetric grouping cancels constant input exactly in floating point
    return (rc[:, 4:] + rc[:, :-4]) - 4.0 * (rc[:, 3:-1] + rc[:, 1:-3]) + 6.0 * rc[:, 2:-2]


@dataclass
class RfdmSequence:
    """Per-frame range x Doppler magnitude maps, the classifier input.

    frames: float64 [n_frames][n_range_bins][n_doppler_bins]; the Doppler
    axis is fftshifted so zero velocity sits at bin n_doppler // 2. The
    maps `cube_to_rfdm` returns, and an RFDM file stores, are divided by
    the sequence maximum (`condition_rfdm`).
    """

    frames: np.ndarray

    def validate(self) -> None:
        if not np.all(np.isfinite(self.frames)):
            raise ShapeError("RFDM contains non-finite values")
        if np.any(self.frames < 0):
            raise ShapeError("RFDM magnitudes must be non-negative")


def doppler_process(rc: np.ndarray, start: int = 0, count: int | None = None) -> RfdmSequence:
    """Slow-time FFT per range bin: [frame][chirp][range] -> RFDM sequence.

    Chirp axis is Hann-windowed, zero-padded to the next power of two,
    transformed, fftshifted and magnitude-detected. Only bins start ..
    start + count - 1 of the fftshifted axis are computed (default: all of
    them).
    """
    n_chirps = rc.shape[1]
    xw = rc * np.hanning(n_chirps)[:, np.newaxis]
    n_pad = next_pow2(n_chirps)
    # the fftshift moves DFT bin k to n_pad // 2 + k: start there, wrapping;
    # the spectrum is [frame, range, doppler]
    spec = fft(np.moveaxis(xw, 1, -1), n_pad, start - n_pad // 2, count)
    return RfdmSequence(frames=np.abs(spec))


def condition_rfdm(seq: RfdmSequence) -> RfdmSequence:
    """Divide a map sequence that already holds only the kept bins by its
    maximum; an all-zero sequence passes unchanged."""
    frames = seq.frames
    peak = float(frames.max(initial=0.0))
    out = frames / peak if peak > 0.0 else frames.copy()
    return RfdmSequence(frames=out)


def check_crop(n_chirps: int, n_samples: int, mti: bool, n_range_crop: int,
               n_doppler_crop: int) -> tuple:
    """(range bins, Doppler bins) of the full padded map of a cube with
    n_chirps chirps of n_samples samples: the padded samples, and the padded
    chirps less the 4 that MTI drops. ShapeError if fewer than 2 chirps are
    left for the Doppler transform or a crop exceeds the map."""
    n_slow = n_chirps - 4 if mti else n_chirps
    if n_slow < 2:
        raise ShapeError(f"Doppler processing needs slow-time length >= 2, got {n_slow} "
                         f"from {n_chirps} chirps (mti={'on' if mti else 'off'})")
    n_r, n_d = next_pow2(n_samples), next_pow2(n_slow)
    if n_range_crop > n_r or n_doppler_crop > n_d:
        raise ShapeError(
            f"crop ({n_range_crop}, {n_doppler_crop}) exceeds map size ({n_r}, {n_d})"
        )
    return n_r, n_d


def cube_to_rfdm(cube: np.ndarray, mti: bool, n_range_crop: int,
                 n_doppler_crop: int) -> RfdmSequence:
    """Full chain on a [frame, chirp, sample] cube: range FFT ->
    (optional) 4th-order MTI -> Doppler FFT -> conditioning.

    The crop window is placed here, once, on the full padded map: range
    bins 0 .. n_range_crop - 1 (the near-field gesture zone) and Doppler
    bins centred on zero velocity. Both transforms compute only the bins
    inside the window, so the maps arrive cropped and conditioning only
    scales them.
    """
    _, n_d = check_crop(cube.shape[1], cube.shape[2], mti, n_range_crop, n_doppler_crop)
    d0 = n_d // 2 - n_doppler_crop // 2
    rc = range_compress(cube, n_range_crop)
    if mti:
        rc = mti_filter(rc)
    seq = doppler_process(rc, start=d0, count=n_doppler_crop)
    return condition_rfdm(seq)
