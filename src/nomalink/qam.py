"""Gray-coded QAM maps and successive interference cancellation.

The conventional baseline sends each user's quantizer index on a unit
mean power QAM constellation.  Even bit widths give square QAM, odd ones
rectangular (the extra bit goes to the in-phase axis); both axes carry
independent Gray-coded PAM.  The far user's index is detected first by
nearest-point search treating the near signal as noise, its contribution
is subtracted, and the near index is detected from the residual.  The
SIC stages take the two superposition amplitudes as plain numbers, which
the caller reads from the config (config.LinkSection.amplitudes).

Detection runs on a PointGrid, built once per QAM map or quantizer by
point_grid: each axis's sorted levels with their origin and step, the
(real level, imaginary level) -> index table and the smallest level
spacing.  Every point set the package detects on is a uniform
rectangular grid (the PAM levels, the quantizer levels), and point_grid
rejects any other.  On such a grid the nearest level of each axis is
plain PAM slicing, round((x - origin) / step), and the nearest point is
the pair of nearest levels.  nearest_point slices every row and sends
only the rows it cannot certify (near a level midpoint, or far from the
grid) to the exact bracket search, which compares the up to four
bracketing grid points.  Both give exactly the exhaustive search's
argmin, ties to the lowest index, in O(N) memory for every width up to
16 bits.  The neural chain uses it on its real levels.
"""

from dataclasses import dataclass, field

import numpy as np

# Within this many smallest grid steps of its bracket, rounding of |y - p|
# (relative error ~1e-16) cannot make an outside point tie with a bracket
# point; rows farther out are rare and get a full scan.
_BRACKET_REACH = 1e6
# A sliced row is certified when, on every axis, it lies at least
# _SLICE_MARGIN of that axis's step from a level midpoint and at most
# _SLICE_FAR smallest grid steps from its nearest level (see nearest_point).
_SLICE_MARGIN = 1e-5
_SLICE_FAR = 1e4
# Largest distance, in steps, of a level from origin + k * step.  Far below
# half a step, so an arithmetic bracket off by one still holds the level
# nearest to the input; the package's grids stray by about 1e-11.
_UNIFORM_TOL = 1e-6


@dataclass(frozen=True)
class PointGrid:
    """A uniform rectangular grid of distinct points, ready for detection.

    lev_re and lev_im are the sorted levels of each axis, lev[k] = lev[0]
    + k * step (step 0 on a single-level axis); points[index[r *
    len(lev_im) + i]] is the point at (lev_re[r], lev_im[i]).  unit is
    the smallest spacing of adjacent levels on either axis (inf for a
    single point), the length the detector's distance limits count in.
    """

    points: np.ndarray = field(repr=False)
    lev_re: np.ndarray = field(repr=False)
    lev_im: np.ndarray = field(repr=False)
    step_re: float
    step_im: float
    index: np.ndarray = field(repr=False)
    unit: float

    def __len__(self) -> int:
        return len(self.points)


def _uniform_step(lev: np.ndarray) -> float:
    """Step of sorted, evenly spaced levels; ValueError if they are not."""
    if len(lev) == 1:
        return 0.0
    step = (lev[-1] - lev[0]) / (len(lev) - 1)
    if not np.all(np.abs((lev - lev[0]) / step - np.arange(len(lev))) <= _UNIFORM_TOL):
        raise ValueError("points are not a uniform grid: levels are unevenly spaced")
    return float(step)


def point_grid(points) -> PointGrid:
    """Build the detection grid of a finite point set.

    The points must form a uniform rectangular grid of distinct points
    (a QAM map or a real constellation); ValueError names what fails.
    """
    points = np.array(points, dtype=complex).ravel()
    if len(points) == 0 or not np.all(np.isfinite(points)):
        raise ValueError("points must be a non-empty set of finite values")
    points.flags.writeable = False
    lev_re, pos_re = np.unique(points.real, return_inverse=True)
    lev_im, pos_im = np.unique(points.imag, return_inverse=True)
    # (real level, imaginary level) cell of each point, and its inverse
    cells = pos_re * len(lev_im) + pos_im
    index = np.argsort(cells)
    if len(cells) != len(lev_re) * len(lev_im) or \
            np.any(cells[index] != np.arange(len(cells))):
        raise ValueError("points are not a rectangular grid of distinct points")
    step_re, step_im = _uniform_step(lev_re), _uniform_step(lev_im)
    unit = min(np.diff(lev, append=np.inf).min() for lev in (lev_re, lev_im))
    return PointGrid(points, lev_re, lev_im, step_re, step_im, index, float(unit))


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
    """Index -> symbol table for a Gray-coded rectangular QAM, with its
    detection grid."""

    bits_m: int
    grid: PointGrid = field(repr=False)

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

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
    return QamMap(bits_m, point_grid(pts))


def qam_modulate(indices, qmap: QamMap) -> np.ndarray:
    idx = np.asarray(indices)
    if np.any(idx < 0) or np.any(idx >= qmap.size):
        raise ValueError("index outside constellation")
    return qmap.points[idx]


def _bracket(x: np.ndarray, lev: np.ndarray, step: float) -> list:
    """Level positions just below and above x (one on a single-level axis).

    x is clamped to the levels first, so NaN lands on the lowest level and
    huge values cannot overflow the division; such rows are far rows.
    """
    if len(lev) == 1:
        return [np.zeros(x.shape, dtype=np.intp)]
    x = np.fmin(np.fmax(x, lev[0]), lev[-1])
    k = np.minimum(((x - lev[0]) / step).astype(np.intp), len(lev) - 2)
    return [k, k + 1]


def _detection_input(y, grid: PointGrid) -> np.ndarray:
    """y as a 1-d array: float when it is real and the grid lies on the
    real axis (one imaginary level, 0), where comparing in float equals
    the complex comparison bit for bit; complex otherwise."""
    y = np.atleast_1d(np.asarray(y))
    if not np.iscomplexobj(y) and len(grid.lev_im) == 1 and grid.lev_im[0] == 0:
        return y.astype(float, copy=False)
    return y.astype(complex, copy=False)


def _bracket_nearest(y, grid: PointGrid) -> np.ndarray:
    """nearest_point by comparing the up to four bracketing points.

    Exact for every row: rows whose bracketing points all lie farther
    than _BRACKET_REACH smallest steps get a full scan.
    """
    y = _detection_input(y, grid)
    if not np.iscomplexobj(y):
        rows = _bracket(y, grid.lev_re, grid.step_re)
        cands = [grid.index[r] for r in rows]
        dists = [np.abs(y - grid.lev_re[r]) for r in rows]
    else:
        n_im = len(grid.lev_im)
        cands = [grid.index[r * n_im + i]
                 for r in _bracket(y.real, grid.lev_re, grid.step_re)
                 for i in _bracket(y.imag, grid.lev_im, grid.step_im)]
        dists = [np.abs(y - grid.points[c]) for c in cands]
    idx, d, worst = cands[0], dists[0], dists[0]
    for c, d_c in zip(cands[1:], dists[1:]):
        take = (d_c < d) | ((d_c == d) & (c < idx))
        idx, d, worst = np.where(take, c, idx), np.minimum(d, d_c), np.maximum(worst, d_c)

    for k in np.flatnonzero(~(worst <= _BRACKET_REACH * grid.unit)):
        idx[k] = np.argmin(np.abs(y[k] - grid.points))
    return idx


def _slice(x: np.ndarray, lev: np.ndarray, step: float, far: float):
    """Nearest level position of x on one axis, and the rows slicing cannot
    certify: within _SLICE_MARGIN steps of a level midpoint, or farther
    than far from the nearest level (NaN counts as far)."""
    if len(lev) == 1:
        return np.zeros(x.shape, dtype=np.intp), ~((x >= lev[0] - far) & (x <= lev[0] + far))
    # clamped first, so NaN and huge values neither warn nor overflow; a
    # clamped row lies farther than far
    t = np.fmax(x, lev[0] - far - step)
    np.fmin(t, lev[-1] + far + step, out=t)
    t -= lev[0]
    t /= step
    k = np.rint(t)
    np.clip(k, 0, len(lev) - 1, out=k)
    t -= k
    r = np.abs(t, out=t)
    r -= 0.5  # signed distance, in steps, from the nearest level's midpoint
    doubt = np.abs(r) < _SLICE_MARGIN
    doubt |= r > far / step - 0.5
    return k.astype(np.intp), doubt


def nearest_point(y, grid: PointGrid) -> np.ndarray:
    """Index of the closest grid point (ties -> lowest index).

    Equals argmin |y - p| over all points, as numpy computes |y - p|, in
    O(len(y) + len(grid)) memory.  A real y on a real grid is compared
    in float (see _detection_input).

    Each axis is sliced: its level is round((x - origin) / step), clipped
    to the axis.  A row is certified when, on every axis, x lies at least
    _SLICE_MARGIN steps (1e-5) from the midpoint of two levels and at
    most _SLICE_FAR smallest grid steps u (1e4 u) from its sliced level;
    a single-level axis checks only the second.  A certified row's sliced
    point is the exhaustive argmin.  Levels stray from origin + j * step
    by at most _UNIFORM_TOL (1e-6 steps), and the computed position errs
    by under 2e-11 steps (x lies within 2^16 + 1e4 steps of the origin),
    so every other level of an axis is farther from x, in squared
    distance, by at least (2e-5 - 2.1e-6) * (1 - 2e-6) steps^2 >
    1.7e-5 u^2.  The sliced point lies within sqrt(2) * 1e4 u of y, so
    every other point is farther by a relative 1.7e-5 / (2 * 2e8) > 4e-14:
    more than forty times the few ulps by which the computed |y - p| can
    err, so rounding can neither tie nor reverse a comparison.  The other
    rows (NaN, infinities, far rows, rows on or near a decision boundary)
    go to the bracket search.
    """
    y = _detection_input(y, grid)
    far = _SLICE_FAR * grid.unit
    if not np.iscomplexobj(y):
        k, doubt = _slice(y, grid.lev_re, grid.step_re, far)
        idx = grid.index[k]
    else:
        k_re, doubt = _slice(y.real, grid.lev_re, grid.step_re, far)
        k_im, doubt_im = _slice(y.imag, grid.lev_im, grid.step_im, far)
        doubt |= doubt_im
        k_re *= len(grid.lev_im)
        k_re += k_im
        idx = grid.index[k_re]
    rows = np.flatnonzero(doubt)
    if len(rows):
        idx[rows] = _bracket_nearest(y[rows], grid)
    return idx


def detect_far(y, qmap_far: QamMap, a_far: float) -> np.ndarray:
    """First SIC stage: far indices, treating the near signal as noise.

    This is all the far receiver needs; sic_detect continues from it.
    y is rescaled by multiplying with 1 / a_far: numpy's complex / real
    division multiplies by the same reciprocal, so the values are those
    of y / a_far (up to the sign of a zero part, which slicing ignores).
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    return nearest_point(y * (1.0 / a_far), qmap_far.grid)


def sic_detect(y, qmap_near: QamMap, qmap_far: QamMap, a_near: float, a_far: float):
    """Far-first successive interference cancellation.

    y is the equalized receive signal a_near s_n + a_far s_f plus noise,
    with the amplitudes of the superposition (config.LinkSection.amplitudes).
    The far signal is removed by gathering from the far map's points
    scaled once by a_far.  Returns (near_indices, far_indices).
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    idx_far = detect_far(y, qmap_far, a_far)
    residual = y - (a_far * qmap_far.points)[idx_far]
    residual *= 1.0 / a_near
    idx_near = nearest_point(residual, qmap_near.grid)
    return idx_near, idx_far


def sic_macs_per_symbol(bits_near: int, bits_far: int) -> int:
    """Declared cost of the paper's baseline, an exhaustive-search SIC.

    One complex distance is 4 multiply-accumulates, for every far point and
    then every near point; nearest_point itself compares at most four.
    """
    return 4 * (2**bits_far + 2**bits_near)
