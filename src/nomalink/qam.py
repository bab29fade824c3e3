"""Gray-coded QAM maps and successive interference cancellation.

The conventional baseline sends each user's quantizer index on a unit
mean power QAM constellation.  Even bit widths give square QAM, odd ones
rectangular (the extra bit goes to the in-phase axis); both axes carry
independent Gray-coded PAM.  The far user's index is detected first by
nearest-point search treating the near signal as noise, its contribution
is subtracted, and the near index is detected from the residual.

Detection brackets the input between two levels per axis (PAM slicing)
and compares only those up to four grid points: exactly the exhaustive
search's argmin, ties to the lowest index, in O(N) memory for every
width up to 16 bits.  The neural chain uses it on its real levels.
"""

from dataclasses import dataclass, field

import numpy as np

from .modem import SUPERPOSE_SQRT, amplitudes

# Within this many smallest grid steps of its bracket, rounding of |y - p|
# (relative error ~1e-16) cannot make an outside point tie with a bracket
# point; rows farther out are rare and get a full scan.
_BRACKET_REACH = 1e6


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _pam_levels(bits: int) -> np.ndarray:
    """Gray-ordered PAM amplitudes -(L-1), ..., (L-1) for L = 2**bits."""
    L = 2**bits
    amp = np.zeros(L)
    for pos in range(L):
        # position pos on the axis carries index gray(pos), so indices of
        # adjacent levels differ in exactly one bit
        amp[_gray(pos)] = 2 * pos - (L - 1)
    return amp


@dataclass(frozen=True)
class QamMap:
    """Index -> symbol table for a Gray-coded rectangular QAM."""

    bits_m: int
    points: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return 2**self.bits_m


def make_qam(bits_m: int) -> QamMap:
    """Unit mean power Gray QAM with 2**bits_m points.

    bits_m = 1 is BPSK on the real axis.  For larger widths the index
    splits as (high bits -> in-phase, low bits -> quadrature); index 0 of
    a square map is the lower-left corner point.
    """
    if not (1 <= bits_m <= 16):
        raise ValueError("bits_m must be in 1..16")
    bits_i = (bits_m + 1) // 2
    bits_q = bits_m - bits_i
    lev_i = _pam_levels(bits_i)
    lev_q = _pam_levels(bits_q) if bits_q else np.zeros(1)
    idx = np.arange(2**bits_m)
    pts = lev_i[idx >> bits_q] + 1j * lev_q[idx & ((1 << bits_q) - 1)]
    pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    pts.flags.writeable = False
    return QamMap(bits_m, pts)


def qam_modulate(indices, qmap: QamMap) -> np.ndarray:
    idx = np.asarray(indices)
    if np.any(idx < 0) or np.any(idx >= qmap.size):
        raise ValueError("index outside constellation")
    return qmap.points[idx]


def nearest_point(y, points: np.ndarray) -> np.ndarray:
    """Index of the closest constellation point (ties -> lowest index).

    points must be a rectangular grid of distinct points: a QAM map or a
    real constellation.  Equals argmin |y - p| over all points, in
    O(len(y) + len(points)) memory.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    points = np.asarray(points, dtype=complex)
    lev_re, pos_re = np.unique(points.real, return_inverse=True)
    lev_im, pos_im = np.unique(points.imag, return_inverse=True)
    # (real level, imaginary level) cell of each point, and its inverse
    cells = pos_re * len(lev_im) + pos_im
    grid = np.argsort(cells)
    if len(cells) != len(lev_re) * len(lev_im) or \
            np.any(cells[grid] != np.arange(len(cells))):
        raise ValueError("points are not a rectangular grid of distinct points")

    def bracket(lev, x):
        """Level positions just below and above x (one on a single-level axis)."""
        k = np.searchsorted(lev, x)
        return [np.maximum(k - 1, 0), np.minimum(k, len(lev) - 1)][:len(lev)]

    cands = [grid[r * len(lev_im) + i]
             for r in bracket(lev_re, y.real) for i in bracket(lev_im, y.imag)]
    dists = [np.abs(y - points[c]) for c in cands]
    idx, d = cands[0], dists[0]
    for c, d_c in zip(cands[1:], dists[1:]):
        take = (d_c < d) | ((d_c == d) & (c < idx))
        idx, d = np.where(take, c, idx), np.minimum(d, d_c)

    step = min(np.diff(lev, append=np.inf).min() for lev in (lev_re, lev_im))
    for k in np.flatnonzero(~(np.max(dists, axis=0) <= _BRACKET_REACH * step)):
        idx[k] = np.argmin(np.abs(y[k] - points))
    return idx


def detect_far(y, qmap_far: QamMap, rho_near: float, rho_far: float,
               convention: str = SUPERPOSE_SQRT) -> np.ndarray:
    """First SIC stage: far indices, treating the near signal as noise.

    This is all the far receiver needs; sic_detect continues from it.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    _, a_f = amplitudes(rho_near, rho_far, convention)
    return nearest_point(y / a_f, qmap_far.points)


def sic_detect(y, qmap_near: QamMap, qmap_far: QamMap,
               rho_near: float, rho_far: float, convention: str = SUPERPOSE_SQRT):
    """Far-first successive interference cancellation.

    y is the equalized receive signal a_n s_n + a_f s_f plus noise, with
    the amplitudes of the superposition convention (sqrt(rho) by default).
    Returns (near_indices, far_indices).
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    a_n, a_f = amplitudes(rho_near, rho_far, convention)
    idx_far = detect_far(y, qmap_far, rho_near, rho_far, convention)
    residual = y - a_f * qmap_far.points[idx_far]
    idx_near = nearest_point(residual / a_n, qmap_near.points)
    return idx_near, idx_far


def sic_macs_per_symbol(bits_near: int, bits_far: int) -> int:
    """Declared cost of the paper's baseline, an exhaustive-search SIC.

    One complex distance is 4 multiply-accumulates, for every far point and
    then every near point; nearest_point itself compares at most four.
    """
    return 4 * (2**bits_far + 2**bits_near)
