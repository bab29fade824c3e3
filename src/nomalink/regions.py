"""Semantic rate and power regions for NOMA and OMA resource allocation.

Rate regions sweep the near user's delivered semantic rate and report
the largest far rate compatible with both users' accuracy requirements;
power regions sweep the near user's accuracy requirement and report the
smallest total power share meeting all requirements.  Every curve is
array code over all of its points at once.  Both NOMA curves are closed
forms: the near requirement pins the near power share, and the far user
takes the rest (rate) or the least it needs (power).  Both OMA curves
share one row-batched search over the near user's bandwidth slice, one
row per rate point or requirement level: a coarse slice grid, then
deterministic zoom refinement around each row's best cell, every round
one array over all rows.  The coarse grid is evaluated in blocks of at
most _GRID_BLOCK_POINTS points, every row of a block in one call, and
only on the slices that can be feasible: a slice too narrow to carry a
user's required rate below its accuracy ceiling is infeasible by the
same test gamma_required applies, so each search skips those slices
before evaluating (_oma_rate_slices, _oma_power_slices).  Each OMA
objective computes the SNRs of its fixed accuracy requirements once per
curve, and the power search's rows are the levels' required near SNRs,
so no call recomputes them.

Every curve reads the experiment config's region section (cfg.region):
the channel gains gain_near_db / gain_far_db, bandwidth_hz and the slice
grid's grid_points.  The rate curves take their accuracy requirements
xi_req_near and xi_req_far from it as well, and the near-rate sweep's
sweep_points; the power curves take xi_req_far, rate_req_near and
rate_req_far from the selected requirement case and scale their power
shares to p_max_watts.  The near user is the text source and the far
user the image source, with semantic rates

    text  (near): rate = bandwidth_hz / text_k_symbols * xi
    image (far) : rate = bandwidth_hz / image_compression * xi

at accuracy xi over the whole band; under OMA a user's rate scales
with its slice of the band.

Conventions shared by every search:

* gains are the region section's channel gains in linear scale; under
  NOMA the near user decodes after interference cancellation (SNR
  rho_n * g_n) while the far user treats the near signal as noise
  (SNR rho_f * g_f / (rho_n * g_f + 1)); under OMA each user gets a
  bandwidth slice w and power share rho giving SNR rho * g * W / w.
* requirement feasibility uses the extended inverse accuracy
  (gamma_required): targets below the curve floor cost nothing, targets
  at or above the ceiling are unreachable.
* corner points where a user receives an exactly-zero resource share are
  admitted in the limit sense: the excluded user contributes zero rate
  and its accuracy requirement counts as satisfiable iff it lies below
  that user's accuracy ceiling.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import RegionSection, RequirementCase
from .srate import AccuracyModel, gamma_required, xi_eval

_REFINE_ROUNDS = 10
_REFINE_POINTS = 33
# coarse-grid points per objective call: 4 rows of a 2,048-slice grid
_GRID_BLOCK_POINTS = 8192
_FEAS_TOL = 1e-9
_SWEEP_CEILING_MARGIN = 0.05


@dataclass(frozen=True)
class RegionPoint:
    x: float
    y: float
    feasible: bool


@dataclass(frozen=True)
class RegionCurve:
    """Sweep result; y is NaN wherever the point is infeasible."""

    scheme: str
    points: tuple

    @property
    def feasible(self) -> bool:
        return any(p.feasible for p in self.points)

    @property
    def dropped(self) -> int:
        return sum(not p.feasible for p in self.points)


def _gains(r: RegionSection) -> tuple[float, float]:
    return 10.0 ** (r.gain_near_db / 10.0), 10.0 ** (r.gain_far_db / 10.0)


def _rates_per_accuracy(r: RegionSection) -> tuple[float, float]:
    """Semantic rate per unit accuracy over the whole band: W / k for the
    text (near) user, W / compression for the image (far) user."""
    return r.bandwidth_hz / r.text_k_symbols, r.bandwidth_hz / r.image_compression


def _slice_accuracy(rate, w: float, pref: float, w_slice):
    """Accuracy that a slice w_slice of the band w needs to carry a
    semantic rate at pref rate per unit accuracy over the whole band.  It
    falls as the slice widens and rises with the rate, and where it
    reaches the accuracy ceiling gamma_required is +inf."""
    return rate * w / (pref * w_slice)


def _curve(scheme: str, xs, ys) -> RegionCurve:
    """Curve from x and y arrays; a point is feasible where y is not NaN."""
    return RegionCurve(scheme, tuple(RegionPoint(float(x), float(y), not math.isnan(y))
                                     for x, y in zip(xs, ys)))


def _linspace_rows(a, b, n: int) -> np.ndarray:
    """np.linspace(a[r], b[r], n) for every row r of a and b, bit for bit."""
    k = np.arange(n, dtype=float)
    delta = (b - a)[..., None]
    step = delta / (n - 1)
    # like np.linspace, divide before scaling where the step underflows to 0
    xs = np.where(step == 0, k / (n - 1) * delta, k * step) + a[..., None]
    xs[..., -1] = b
    return xs


def _cost(v, maximize: bool) -> np.ndarray:
    """Values oriented for argmin: negated to maximize, non-finite to inf."""
    v = -v if maximize else v
    return np.where(np.isfinite(v), v, np.inf)


def _refine_extremum(fun, lo, hi, best_x, maximize: bool):
    """Deterministic zoom refinement around bracketing intervals, one per row.

    Re-grids each bracket [lo, hi], keeps the cell around the best finite
    value and repeats.  fun takes an array whose last axis holds the
    points of each row and is called once per round, on all rows at
    once; scalar brackets are one row.  Only attained values are ever
    returned, so the result can never undercut the coarse grid, and
    extrema sitting on a feasibility edge (fun returns NaN beyond it) are
    approached from the inside.
    """
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    r = np.arange(len(a)) if a.ndim else ...  # arr[r, i] is arr[row, i[row]] per row
    x_best = np.asarray(best_x, dtype=float)
    v_best = _cost(fun(x_best[..., None]), maximize)[..., 0]
    for _ in range(_REFINE_ROUNDS):
        xs = _linspace_rows(a, b, _REFINE_POINTS)
        vals = _cost(fun(xs), maximize)
        i = np.argmin(vals, axis=-1)
        better = vals[r, i] < v_best
        x_best = np.where(better, xs[r, i], x_best)
        v_best = np.where(better, vals[r, i], v_best)
        a, b = xs[r, np.maximum(i - 1, 0)], xs[r, np.minimum(i + 1, _REFINE_POINTS - 1)]
    return x_best, fun(x_best[..., None])[..., 0]


def _coarse_block(fun, rows, grid: np.ndarray, maximize: bool, usable, best, least) -> int:
    """Search the coarse grid for the first block of rows, and return the
    block's length.  The block takes as many rows as fit _GRID_BLOCK_POINTS
    with the slices that usable marks for all of the rows given, so any
    shorter block fits too.  best and least, views over the same rows,
    hold each row's first least-cost slice so far and that cost, and are
    updated in place.  A function of its own, so that one block's index
    array is freed before the next block's rule allocates."""
    cols = np.arange(len(grid)) if usable is None else np.flatnonzero(usable(rows, grid))
    m = min(len(rows), max(1, _GRID_BLOCK_POINTS // max(len(cols), 1)))
    step = _GRID_BLOCK_POINTS // m  # all slices in one call unless one row exceeds the budget
    for c in range(0, len(cols), step):
        j = cols[c:c + step]
        cost = _cost(fun(rows[:m], grid[j]), maximize)
        i = np.argmin(cost, axis=1)
        v = cost[np.arange(m), i]
        # strictly less: a tie keeps the earlier slice, as one argmin would
        better = v < least[:m]
        best[:m] = np.where(better, j[i], best[:m])
        least[:m] = np.where(better, v, least[:m])
    return m


def _oma_search(fun, rows, grid: np.ndarray, maximize: bool, usable=None) -> np.ndarray:
    """Extremum of fun(rows[:, None], w_n) over the near slice w_n, per row.

    Evaluates the coarse slice grid in blocks of at most _GRID_BLOCK_POINTS
    points, every row of a block in one call (a row with more slices than
    that in several), takes each row's best grid point (NaN masked), then
    refines the bracket around it of every row that has one, all at once.
    NaN for rows where no grid point is valid; those are not refined.

    usable(rows, grid), when given, marks the grid slices that any of
    these rows can use: fun must be NaN at every other slice for each of
    the rows.  Those slices are skipped, which changes no result, because
    a NaN slice is never a row's best.  Without it every slice is searched.
    """
    rows = np.asarray(rows, dtype=float)[:, None]
    best = np.zeros(len(rows), dtype=np.intp)
    least = np.full(len(rows), np.inf)
    k = 0
    while k < len(rows):
        k += _coarse_block(fun, rows[k:], grid, maximize, usable, best[k:], least[k:])
    found = np.flatnonzero(least < np.inf)
    out = np.full(len(rows), np.nan)
    if len(found):
        best, rows = best[found], rows[found]
        lo = grid[np.maximum(best - 1, 0)]
        hi = grid[np.minimum(best + 1, len(grid) - 1)]
        _, out[found] = _refine_extremum(lambda w_n: fun(rows, w_n), lo, hi, grid[best],
                                         maximize)
    return out


def default_rate_grid(r: RegionSection, near_model: AccuracyModel) -> np.ndarray:
    """Near-rate sweep from the accuracy-requirement point to full power.

    The top is kept a small margin below the near accuracy ceiling: the
    power needed to close the last sliver of accuracy diverges, so curve
    values there are dominated by grid resolution rather than the model.
    """
    g_n, _ = _gains(r)
    pref_n, _ = _rates_per_accuracy(r)
    cap = near_model.a2 - _SWEEP_CEILING_MARGIN * (near_model.a2 - near_model.a1)
    lo = pref_n * r.xi_req_near
    hi = pref_n * min(xi_eval(near_model, g_n), cap)
    if hi <= lo:
        # requirement above what full power delivers: empty sweep at lo
        return np.array([lo])
    return np.linspace(lo, hi, r.sweep_points)


def noma_rate_region(r: RegionSection, near_model: AccuracyModel,
                     far_model: AccuracyModel, rate_grid) -> RegionCurve:
    """Largest far rate per near rate of rate_grid (default_rate_grid)
    under superposition.

    Closed form: the near rate pins the near power share, the far user
    gets the rest and its rate follows from its interference-limited SNR.
    """
    g_n, g_f = _gains(r)
    pref_n, pref_f = _rates_per_accuracy(r)
    rate_n = np.asarray(rate_grid)
    # an unreachable near rate needs rho_n = inf, which the share test drops
    rho_n = np.maximum(0.0, gamma_required(near_model, rate_n / pref_n) / g_n)
    rho_c = np.minimum(rho_n, 1.0)
    acc_f = xi_eval(far_model, (1.0 - rho_c) * g_f / (rho_c * g_f + 1.0))
    ok = (rho_n <= 1.0 + _FEAS_TOL) & (acc_f + _FEAS_TOL >= r.xi_req_far)
    return _curve("noma-rate", rate_n, np.where(ok, pref_f * acc_f, np.nan))


def _oma_rate_at(r: RegionSection, near_model: AccuracyModel, far_model: AccuracyModel):
    """The OMA objective far_rate(rate_n, w_n): far rate for each near rate
    in rate_n and near bandwidth slice in w_n (broadcast against each
    other), NaN where the split is invalid.  The near accuracy
    requirement's SNR is computed once, here, not once per call."""
    g_n, g_f = _gains(r)
    w = r.bandwidth_hz
    pref_n, pref_f = _rates_per_accuracy(r)
    need_req = gamma_required(near_model, r.xi_req_near)
    # near excluded: admissible only for a zero near rate, limit sense
    near_out_ok = r.xi_req_near < near_model.a2
    # far excluded at the right corner
    far_out = 0.0 if r.xi_req_far < far_model.a2 else np.nan

    def far_rate(rate_n, w_n):
        w_n = np.asarray(w_n, dtype=float)
        w_f = w - w_n
        # slices of zero width divide by zero here, and a need near the float
        # range (slope c1 near 0) overflows to +inf, its exact limit; the
        # masks below drop both
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            acc_rate = _slice_accuracy(rate_n, w, pref_n, w_n)
            need = np.maximum(gamma_required(near_model, acc_rate), need_req)
            rho_low = np.maximum(0.0, need * w_n / (w * g_n))
            rho_low = np.where(w_n > 0.0, rho_low,
                               np.where((rate_n <= 0.0) & near_out_ok, 0.0, np.nan))
            gamma_f = (1.0 - np.minimum(rho_low, 1.0)) * g_f * w / w_f
        acc_f = xi_eval(far_model, gamma_f)
        rate_f = np.where(acc_f + _FEAS_TOL < r.xi_req_far, np.nan,
                          pref_f * (w_f / w) * acc_f)
        rate_f = np.where(w_f > 0.0, rate_f, far_out)
        return np.where(rho_low <= 1.0 + _FEAS_TOL, rate_f, np.nan)
    return far_rate


def _oma_rate_slices(r: RegionSection, near_model: AccuracyModel):
    """The OMA rate search's skip rule usable(rate_n, w_n): the w_n = 0
    corner, and the slices on which the smallest near rate of rate_n needs
    an accuracy below the near ceiling.  On any other slice every rate's
    need and near share are +inf, so _oma_rate_at is NaN there."""
    w = r.bandwidth_hz
    pref_n, _ = _rates_per_accuracy(r)

    def usable(rate_n, w_n):
        with np.errstate(divide="ignore", invalid="ignore"):
            dead = _slice_accuracy(np.min(rate_n), w, pref_n, w_n) >= near_model.a2
        return (w_n <= 0.0) | ~dead
    return usable


def oma_rate_region(r: RegionSection, near_model: AccuracyModel,
                    far_model: AccuracyModel, rate_grid) -> RegionCurve:
    """Largest far rate per near rate of rate_grid (default_rate_grid)
    under orthogonal slicing.

    Searches the near user's bandwidth slice for every rate point at
    once: a coarse grid, then zoom refinement around each best cell.
    """
    rate_n = np.asarray(rate_grid)
    w_grid = np.linspace(0.0, r.bandwidth_hz, r.grid_points, endpoint=False)
    best = _oma_search(_oma_rate_at(r, near_model, far_model), rate_n, w_grid, maximize=True,
                       usable=_oma_rate_slices(r, near_model))
    return _curve("oma-rate", rate_n, best)


def noma_power_region(r: RegionSection, case: RequirementCase, near_model: AccuracyModel,
                      far_model: AccuracyModel, req_levels) -> RegionCurve:
    """Minimum total power share per near accuracy requirement level.

    Closed form: the total rho_n + max(0, need_f * (1/g_f + rho_n)) and
    every feasibility limit only grow with rho_n, so the minimum sits at
    the smallest near share that meets the near requirements.
    """
    g_n, g_f = _gains(r)
    pref_n, pref_f = _rates_per_accuracy(r)
    levels = np.asarray(req_levels)
    need_n = np.maximum(gamma_required(near_model, levels),
                        gamma_required(near_model, case.rate_req_near / pref_n))
    need_f = max(gamma_required(far_model, case.xi_req_far),
                 gamma_required(far_model, case.rate_req_far / pref_f))
    rho_n = np.maximum(0.0, need_n / g_n)
    # an unreachable far requirement (need_f = +inf) makes the total +inf,
    # and so does a product beyond the float range, its exact limit
    with np.errstate(over="ignore"):
        total = rho_n + np.maximum(0.0, need_f * (1.0 / g_f + rho_n))
    ok = (rho_n <= 1.0) & (total <= 1.0 + _FEAS_TOL)
    return _curve("noma-power", levels, np.where(ok, total, np.nan) * r.p_max_watts)


def _oma_power_total(r: RegionSection, case: RequirementCase, near_model: AccuracyModel,
                     far_model: AccuracyModel):
    """The OMA objective total_power(need_level, w_n): total power share for each
    near requirement SNR in need_level (gamma_required of the near model
    at the requirement level) and near bandwidth slice in w_n (broadcast
    against each other), NaN where the split is invalid.  The far
    accuracy requirement's SNR is computed once, here, not once per call."""
    g_n, g_f = _gains(r)
    w = r.bandwidth_hz
    pref_n, pref_f = _rates_per_accuracy(r)
    need_req_f = gamma_required(far_model, case.xi_req_far)

    def total_power(need_level, w_n):
        w_n = np.asarray(w_n, dtype=float)
        w_f = w - w_n
        # slices of zero width divide by zero here, and a need near the float
        # range (slope c1 near 0) overflows to +inf, its exact limit; the
        # mask below drops both
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            acc_rate_n = _slice_accuracy(case.rate_req_near, w, pref_n, w_n)
            need_n = np.maximum(need_level, gamma_required(near_model, acc_rate_n))
            rho_n = np.maximum(0.0, need_n * w_n / (w * g_n))
            acc_rate_f = _slice_accuracy(case.rate_req_far, w, pref_f, w_f)
            need_f = np.maximum(need_req_f, gamma_required(far_model, acc_rate_f))
            rho_f = np.maximum(0.0, need_f * w_f / (w * g_f))
        # an unreachable requirement (need = +inf) makes the total +inf
        total = rho_n + rho_f
        valid = (w_n > 0.0) & (w_f > 0.0) & (total <= 1.0 + _FEAS_TOL)
        return np.where(valid, total, np.nan)
    return total_power


def _oma_power_slices(r: RegionSection, case: RequirementCase, near_model: AccuracyModel,
                      far_model: AccuracyModel):
    """The OMA power search's skip rule usable(need_level, w_n): the slices
    where both users get bandwidth and each carries its rate requirement
    below its accuracy ceiling, one interval for every level.  On any
    other slice _oma_power_total is NaN."""
    w = r.bandwidth_hz
    pref_n, pref_f = _rates_per_accuracy(r)

    def usable(need_level, w_n):
        w_f = w - w_n
        with np.errstate(divide="ignore", invalid="ignore"):
            dead = ((_slice_accuracy(case.rate_req_near, w, pref_n, w_n) >= near_model.a2)
                    | (_slice_accuracy(case.rate_req_far, w, pref_f, w_f) >= far_model.a2))
        return (w_n > 0.0) & (w_f > 0.0) & ~dead
    return usable


def oma_power_region(r: RegionSection, case: RequirementCase, near_model: AccuracyModel,
                     far_model: AccuracyModel, req_levels) -> RegionCurve:
    """Minimum total power share per near accuracy requirement level.

    Searches the near bandwidth slice for every level at once, from the
    smallest slice that can carry the near rate requirement; when that
    slice is the whole band, no slice on the grid is valid.  Each row of
    the search is one level's requirement SNR, computed once.
    """
    levels = np.asarray(req_levels)
    w = r.bandwidth_hz
    w_lo = case.rate_req_near * w / _rates_per_accuracy(r)[0]  # slice at accuracy 1
    grid = np.linspace(max(w_lo, w / r.grid_points), w, r.grid_points, endpoint=False)
    best = _oma_search(_oma_power_total(r, case, near_model, far_model),
                       gamma_required(near_model, levels), grid, maximize=False,
                       usable=_oma_power_slices(r, case, near_model, far_model))
    return _curve("oma-power", levels, best * r.p_max_watts)
