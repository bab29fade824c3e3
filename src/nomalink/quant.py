"""Asymmetric fixed-range quantizer for bounded feature values.

Feature values live in the fixed interval [-s + d, s + d] (a Tanh output
scaled by s and shifted by d).  An m-bit quantizer over that interval has

    scale      f_s = (2**m - 1) / (2 s)
    zero point p_z = round((-s + d) * f_s)

with round() meaning half away from zero.  Quantization maps a value x to
the integer clamp(round(x * f_s) - p_z, 0, 2**m - 1) and dequantization
maps index i back to (i + p_z) / f_s.  The dequantized constellation
always contains exactly 0.0; its detection grid (qam.PointGrid) is built
once, with the quantizer.  qam imports nothing from the package, so this
module can import it at the top without a cycle.
"""

from dataclasses import dataclass, field

import numpy as np

from .qam import PointGrid, point_grid

EPS_RANGE = 1e-9  # slack for the input range check


class QuantRangeError(ValueError):
    """Input value outside the quantizer's analog range."""


def _outside_range(vals: np.ndarray, bound_s: float, bound_d: float) -> bool:
    """np.any(np.abs(vals - bound_d) > bound_s + EPS_RANGE), decided from
    the extremes in two passes instead of four: rounding vals - bound_d
    is monotonic in vals, so the extreme values give the extreme
    differences.  fmax/fmin skip NaN, which the elementwise test never
    flags either."""
    if vals.size == 0:
        return False
    lim = bound_s + EPS_RANGE
    return bool(np.fmax.reduce(vals, axis=None) - bound_d > lim
                or bound_d - np.fmin.reduce(vals, axis=None) > lim)


def round_half_away(x):
    """Round to nearest integer, ties away from zero (numpy rounds ties to even)."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantizerParams:
    """Fitted quantizer: bit width, analog range, scale, zero point, codebook,
    the codebook's detection grid and its variance under a uniform prior
    (the square of its std, which training divides squared errors by)."""

    bits_m: int
    bound_s: float
    bound_d: float
    scale_fs: float
    zero_pz: int
    constellation_deq: np.ndarray = field(repr=False)
    grid: PointGrid = field(repr=False, compare=False)
    variance: float = field(repr=False, compare=False)

    @property
    def levels(self) -> int:
        return 2**self.bits_m


def fit_quantizer(bits_m: int, bound_s: float, bound_d: float) -> QuantizerParams:
    """Fit an asymmetric quantizer to the fixed range [-s + d, s + d].

    Parameters
    ----------
    bits_m : bit width, 1..16
    bound_s, bound_d : range parameters, 0 < d < s

    The scale uses the full fixed range (2 s wide), not the data; the zero
    point shifts the grid so index -p_z dequantizes to exactly 0.0.
    """
    if not (1 <= bits_m <= 16):
        raise ValueError("bits_m must be in 1..16")
    if not (0 < bound_d < bound_s):
        raise ValueError("bounds must satisfy 0 < d < s")
    scale = (2**bits_m - 1) / (2.0 * bound_s)
    zero = int(round_half_away((-bound_s + bound_d) * scale))
    idx = np.arange(2**bits_m)
    # integer numerator keeps the zero level exactly 0.0
    constellation = (idx + zero) / scale
    constellation.flags.writeable = False
    return QuantizerParams(bits_m, float(bound_s), float(bound_d), scale, zero,
                           constellation, point_grid(constellation),
                           float(np.std(constellation)) ** 2)


def quantize(v, q: QuantizerParams) -> np.ndarray:
    """Map feature values to integer indices in [0, 2**m - 1].

    Raises QuantRangeError if any input lies outside the analog range by
    more than EPS_RANGE.
    """
    vals = np.asarray(v, dtype=float)
    if _outside_range(vals, q.bound_s, q.bound_d):
        bad = vals[np.abs(vals - q.bound_d) > q.bound_s + EPS_RANGE]
        raise QuantRangeError(f"value {bad.flat[0]!r} outside [-s + d, s + d]")
    raw = round_half_away(vals * q.scale_fs) - q.zero_pz
    return np.clip(raw, 0, q.levels - 1).astype(np.int64)


def dequantize(indices, q: QuantizerParams) -> np.ndarray:
    """Map integer indices back to constellation points (i + p_z) / f_s."""
    idx = np.asarray(indices)
    if np.any(idx < 0) or np.any(idx > q.levels - 1):
        raise ValueError("index outside [0, 2**m - 1]")
    return (idx + q.zero_pz) / q.scale_fs
