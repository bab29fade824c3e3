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
one array over all rows.

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
from typing import TYPE_CHECKING

import numpy as np

from .srate import AccuracyModel, gamma_required, xi_eval

if TYPE_CHECKING:  # annotations only
    from .config import RegionSection, RequirementCase

_REFINE_ROUNDS = 10
_REFINE_POINTS = 33
_GRID_BLOCK_ROWS = 4
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


def _gains(r: "RegionSection") -> tuple[float, float]:
    return 10.0 ** (r.gain_near_db / 10.0), 10.0 ** (r.gain_far_db / 10.0)


def _rates_per_accuracy(r: "RegionSection") -> tuple[float, float]:
    """Semantic rate per unit accuracy over the whole band: W / k for the
    text (near) user, W / compression for the image (far) user."""
    return r.bandwidth_hz / r.text_k_symbols, r.bandwidth_hz / r.image_compression


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
    def at(arr, j):  # arr[r, j[r]] for every row r
        return np.take_along_axis(arr, j, axis=-1)[..., 0]

    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x_best = np.asarray(best_x, dtype=float)
    v_best = _cost(fun(x_best[..., None]), maximize)[..., 0]
    for _ in range(_REFINE_ROUNDS):
        xs = _linspace_rows(a, b, _REFINE_POINTS)
        vals = _cost(fun(xs), maximize)
        i = np.argmin(vals, axis=-1)[..., None]
        better = at(vals, i) < v_best
        x_best = np.where(better, at(xs, i), x_best)
        v_best = np.where(better, at(vals, i), v_best)
        a, b = at(xs, np.maximum(i - 1, 0)), at(xs, np.minimum(i + 1, _REFINE_POINTS - 1))
    return x_best, fun(x_best[..., None])[..., 0]


def _oma_search(fun, rows, grid: np.ndarray, maximize: bool) -> np.ndarray:
    """Extremum of fun(rows[:, None], w_n) over the near slice w_n, per row.

    Evaluates the coarse slice grid _GRID_BLOCK_ROWS rows at a time, takes
    each row's best grid point (NaN masked), then refines every row's
    bracket around it at once.  NaN for rows where no grid point is valid.
    """
    rows = np.asarray(rows, dtype=float)[:, None]
    best = np.empty(len(rows), dtype=np.intp)
    found = np.empty(len(rows), dtype=bool)
    for k in range(0, len(rows), _GRID_BLOCK_ROWS):
        block = slice(k, k + _GRID_BLOCK_ROWS)
        cost = _cost(fun(rows[block], grid), maximize)
        best[block] = np.argmin(cost, axis=1)
        found[block] = np.min(cost, axis=1) < np.inf
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, len(grid) - 1)]
    _, val = _refine_extremum(lambda w_n: fun(rows, w_n), lo, hi, grid[best], maximize)
    return np.where(found, val, np.nan)


def default_rate_grid(r: "RegionSection", near_model: AccuracyModel) -> np.ndarray:
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


def noma_rate_region(r: "RegionSection", near_model: AccuracyModel,
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


def _oma_rate_at(r: "RegionSection", near_model: AccuracyModel, far_model: AccuracyModel,
                 rate_n, w_n) -> np.ndarray:
    """Far rate for each near rate in rate_n and near bandwidth slice in
    w_n (broadcast against each other); NaN where the split is invalid."""
    g_n, g_f = _gains(r)
    w = r.bandwidth_hz
    pref_n, pref_f = _rates_per_accuracy(r)
    w_n = np.asarray(w_n, dtype=float)
    w_f = w - w_n

    # slices of zero width divide by zero here; the masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        acc_rate = rate_n * w / (pref_n * w_n)
        need = np.maximum(gamma_required(near_model, acc_rate),
                          gamma_required(near_model, r.xi_req_near))
        rho_low = np.maximum(0.0, need * w_n / (w * g_n))
        # near excluded: admissible only for a zero near rate, limit sense
        near_out_ok = (rate_n <= 0.0) & (r.xi_req_near < near_model.a2)
        rho_low = np.where(w_n > 0.0, rho_low, np.where(near_out_ok, 0.0, np.nan))
        gamma_f = (1.0 - np.minimum(rho_low, 1.0)) * g_f * w / w_f
    acc_f = xi_eval(far_model, gamma_f)
    rate_f = np.where(acc_f + _FEAS_TOL < r.xi_req_far, np.nan,
                      pref_f * (w_f / w) * acc_f)
    # far excluded at the right corner
    far_out_ok = r.xi_req_far < far_model.a2
    rate_f = np.where(w_f > 0.0, rate_f, 0.0 if far_out_ok else np.nan)
    return np.where(rho_low <= 1.0 + _FEAS_TOL, rate_f, np.nan)


def oma_rate_region(r: "RegionSection", near_model: AccuracyModel,
                    far_model: AccuracyModel, rate_grid) -> RegionCurve:
    """Largest far rate per near rate of rate_grid (default_rate_grid)
    under orthogonal slicing.

    Searches the near user's bandwidth slice for every rate point at
    once: a coarse grid, then zoom refinement around each best cell.
    """
    rate_n = np.asarray(rate_grid)
    w_grid = np.linspace(0.0, r.bandwidth_hz, r.grid_points, endpoint=False)
    best = _oma_search(lambda rate, w_n: _oma_rate_at(r, near_model, far_model, rate, w_n),
                       rate_n, w_grid, maximize=True)
    return _curve("oma-rate", rate_n, best)


def noma_power_region(r: "RegionSection", case: "RequirementCase", near_model: AccuracyModel,
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
    # an unreachable far requirement (need_f = +inf) makes the total +inf
    total = rho_n + np.maximum(0.0, need_f * (1.0 / g_f + rho_n))
    ok = (rho_n <= 1.0) & (total <= 1.0 + _FEAS_TOL)
    return _curve("noma-power", levels, np.where(ok, total, np.nan) * r.p_max_watts)


def _oma_power_total(r: "RegionSection", case: "RequirementCase", near_model: AccuracyModel,
                     far_model: AccuracyModel, level, w_n) -> np.ndarray:
    """Total power share for each near requirement level in level and near
    bandwidth slice in w_n (broadcast against each other); NaN where the
    split is invalid."""
    g_n, g_f = _gains(r)
    w = r.bandwidth_hz
    pref_n, pref_f = _rates_per_accuracy(r)
    w_n = np.asarray(w_n, dtype=float)
    w_f = w - w_n

    # slices of zero width divide by zero here; the mask below drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        acc_rate_n = case.rate_req_near * w / (pref_n * w_n)
        need_n = np.maximum(gamma_required(near_model, level),
                            gamma_required(near_model, acc_rate_n))
        rho_n = np.maximum(0.0, need_n * w_n / (w * g_n))
        acc_rate_f = case.rate_req_far * w / (pref_f * w_f)
        need_f = np.maximum(gamma_required(far_model, case.xi_req_far),
                            gamma_required(far_model, acc_rate_f))
        rho_f = np.maximum(0.0, need_f * w_f / (w * g_f))
    # an unreachable requirement (need = +inf) makes the total +inf
    total = rho_n + rho_f
    valid = (w_n > 0.0) & (w_f > 0.0) & (total <= 1.0 + _FEAS_TOL)
    return np.where(valid, total, np.nan)


def oma_power_region(r: "RegionSection", case: "RequirementCase", near_model: AccuracyModel,
                     far_model: AccuracyModel, req_levels) -> RegionCurve:
    """Minimum total power share per near accuracy requirement level.

    Searches the near bandwidth slice for every level at once, from the
    smallest slice that can carry the near rate requirement; when that
    slice is the whole band, no slice on the grid is valid.
    """
    levels = np.asarray(req_levels)
    w = r.bandwidth_hz
    w_lo = case.rate_req_near * w / _rates_per_accuracy(r)[0]  # slice at accuracy 1
    grid = np.linspace(max(w_lo, w / r.grid_points), w, r.grid_points, endpoint=False)
    best = _oma_search(
        lambda lv, w_n: _oma_power_total(r, case, near_model, far_model, lv, w_n),
        levels, grid, maximize=False)
    return _curve("oma-power", levels, best * r.p_max_watts)
