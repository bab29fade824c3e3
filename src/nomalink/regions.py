"""Semantic rate and power regions for NOMA and OMA resource allocation.

Rate regions sweep the near user's delivered semantic rate and report
the largest far rate compatible with both users' accuracy requirements;
power regions sweep the near user's accuracy requirement and report the
smallest total power share meeting all requirements.  Both NOMA curves
are closed forms: the near requirement pins the near power share, and
the far user takes the rest (rate) or the least it needs (power).  The
OMA curves search the near user's bandwidth slice: each point evaluates
the whole slice grid as one array, then zooms in on the best cell with
deterministic refinement that evaluates each round's points as one array.

Conventions shared by every search:

* gains are the scenario's channel gains in linear scale; under NOMA the
  near user decodes after interference cancellation (SNR rho_n * g_n)
  while the far user treats the near signal as noise
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
from dataclasses import dataclass, field

import numpy as np

from .link import LinkScenario
from .srate import (AccuracyModel, SourceProfile, gamma_required, image_profile,
                    rate_prefactor, text_profile, xi_eval)

_REFINE_ROUNDS = 10
_REFINE_POINTS = 33
_FEAS_TOL = 1e-9
_SWEEP_CEILING_MARGIN = 0.05


@dataclass(frozen=True)
class RegionQuery:
    """One region computation: scenario, requirements and grid sizes.

    xi_req_near / xi_req_far are the accuracy requirements; the rate
    requirements only bind the power regions.  req_sweep_max sets the
    top of the requirement sweep for power regions (defaults to most of
    the remaining headroom below the near accuracy ceiling).
    """

    scenario: LinkScenario = field(default_factory=LinkScenario)
    near_profile: SourceProfile = field(default_factory=text_profile)
    far_profile: SourceProfile = field(default_factory=image_profile)
    xi_req_near: float = 0.6
    xi_req_far: float = 0.7
    rate_req_near: float = 0.0
    rate_req_far: float = 0.0
    grid_points: int = 2048
    sweep_points: int = 33
    req_sweep_max: float | None = None

    def __post_init__(self):
        for name in ("xi_req_near", "xi_req_far"):
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.rate_req_near < 0 or self.rate_req_far < 0:
            raise ValueError("rate requirements must be >= 0")
        if self.grid_points < 8 or self.sweep_points < 2:
            raise ValueError("grids too small")


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

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points])


def _gains(scenario: LinkScenario) -> tuple[float, float]:
    return (10.0 ** (scenario.gain_near_db / 10.0),
            10.0 ** (scenario.gain_far_db / 10.0))


def _refine_extremum(fun, lo: float, hi: float, best_x: float, maximize: bool):
    """Deterministic zoom refinement around a bracketing interval.

    Re-grids the bracket, keeps the cell around the best finite value and
    repeats.  fun takes an array of points and is called once per round.
    Only attained values are ever returned, so the result can never
    undercut the coarse grid, and extrema sitting on a feasibility edge
    (fun returns NaN beyond it) are approached from the inside.
    """
    sign = -1.0 if maximize else 1.0

    def value(x):
        v = sign * fun(x)
        return np.where(np.isfinite(v), v, np.inf)

    a, b = lo, hi
    x_best, v_best = best_x, value(best_x)
    for _ in range(_REFINE_ROUNDS):
        xs = np.linspace(a, b, _REFINE_POINTS)
        vals = value(xs)
        i = int(np.argmin(vals))
        if vals[i] < v_best:
            x_best, v_best = xs[i], vals[i]
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, _REFINE_POINTS - 1)]
    return x_best, fun(x_best)


def default_rate_grid(q: RegionQuery, near_model: AccuracyModel) -> np.ndarray:
    """Near-rate sweep from the accuracy-requirement point to full power.

    The top is kept a small margin below the near accuracy ceiling: the
    power needed to close the last sliver of accuracy diverges, so curve
    values there are dominated by grid resolution rather than the model.
    """
    g_n, _ = _gains(q.scenario)
    pref_n = rate_prefactor(q.near_profile, q.scenario.bandwidth_hz)
    cap = near_model.a2 - _SWEEP_CEILING_MARGIN * (near_model.a2 - near_model.a1)
    lo = pref_n * q.xi_req_near
    hi = pref_n * min(xi_eval(near_model, g_n), cap)
    if hi <= lo:
        # requirement above what full power delivers: empty sweep at lo
        return np.array([lo])
    return np.linspace(lo, hi, q.sweep_points)


def noma_rate_region(q: RegionQuery, near_model: AccuracyModel,
                     far_model: AccuracyModel,
                     gamma_grid: np.ndarray | None = None) -> RegionCurve:
    """Largest far rate per near rate under superposition.

    Closed form: the near rate pins the near power share, the far user
    gets the rest and its rate follows from its interference-limited SNR.
    """
    g_n, g_f = _gains(q.scenario)
    pref_n = rate_prefactor(q.near_profile, q.scenario.bandwidth_hz)
    pref_f = rate_prefactor(q.far_profile, q.scenario.bandwidth_hz)
    grid = default_rate_grid(q, near_model) if gamma_grid is None else np.asarray(gamma_grid)

    pts = []
    for rate_n in grid:
        need = gamma_required(near_model, rate_n / pref_n)
        if math.isinf(need) and need > 0:
            pts.append(RegionPoint(float(rate_n), math.nan, False))
            continue
        rho_n = max(0.0, need / g_n)
        if rho_n > 1.0 + _FEAS_TOL:
            pts.append(RegionPoint(float(rate_n), math.nan, False))
            continue
        rho_n = min(rho_n, 1.0)
        rho_f = 1.0 - rho_n
        gamma_f = rho_f * g_f / (rho_n * g_f + 1.0)
        acc_f = xi_eval(far_model, gamma_f)
        if acc_f + _FEAS_TOL < q.xi_req_far:
            pts.append(RegionPoint(float(rate_n), math.nan, False))
            continue
        pts.append(RegionPoint(float(rate_n), pref_f * acc_f, True))
    return RegionCurve("noma-rate", tuple(pts))


def _oma_rate_at(q: RegionQuery, near_model: AccuracyModel, far_model: AccuracyModel,
                 rate_n: float, w_n) -> np.ndarray:
    """Far rate for each near bandwidth slice in w_n; NaN where the split
    is invalid."""
    g_n, g_f = _gains(q.scenario)
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    pref_f = rate_prefactor(q.far_profile, w)
    w_n = np.asarray(w_n, dtype=float)
    w_f = w - w_n

    # slices of zero width divide by zero here; the masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        acc_rate = rate_n * w / (pref_n * w_n)
        need = np.maximum(gamma_required(near_model, acc_rate),
                          gamma_required(near_model, q.xi_req_near))
        rho_low = np.maximum(0.0, need * w_n / (w * g_n))
        # near excluded: admissible only for a zero near rate, limit sense
        near_out_ok = rate_n <= 0.0 and q.xi_req_near < near_model.a2
        rho_low = np.where(w_n > 0.0, rho_low, 0.0 if near_out_ok else np.nan)
        gamma_f = (1.0 - np.minimum(rho_low, 1.0)) * g_f * w / w_f
    acc_f = xi_eval(far_model, gamma_f)
    rate_f = np.where(acc_f + _FEAS_TOL < q.xi_req_far, np.nan,
                      pref_f * (w_f / w) * acc_f)
    # far excluded at the right corner
    far_out_ok = q.xi_req_far < far_model.a2
    rate_f = np.where(w_f > 0.0, rate_f, 0.0 if far_out_ok else np.nan)
    return np.where(rho_low <= 1.0 + _FEAS_TOL, rate_f, np.nan)


def oma_rate_region(q: RegionQuery, near_model: AccuracyModel,
                    far_model: AccuracyModel,
                    gamma_grid: np.ndarray | None = None) -> RegionCurve:
    """Largest far rate per near rate under orthogonal slicing.

    Inner exhaustive search over the near user's bandwidth slice with
    zoom refinement around the best grid cell.
    """
    w = q.scenario.bandwidth_hz
    grid = default_rate_grid(q, near_model) if gamma_grid is None else np.asarray(gamma_grid)
    w_grid = np.linspace(0.0, w, q.grid_points, endpoint=False)

    pts = []
    for rate_n in grid:
        vals = _oma_rate_at(q, near_model, far_model, rate_n, w_grid)
        if np.all(np.isnan(vals)):
            pts.append(RegionPoint(float(rate_n), math.nan, False))
            continue
        i = int(np.nanargmax(vals))
        lo = w_grid[max(i - 1, 0)]
        hi = w_grid[min(i + 1, len(w_grid) - 1)]
        _, best = _refine_extremum(
            lambda wn: _oma_rate_at(q, near_model, far_model, rate_n, wn),
            lo, hi, w_grid[i], maximize=True)
        pts.append(RegionPoint(float(rate_n), float(best), True))
    return RegionCurve("oma-rate", tuple(pts))


def _req_levels(q: RegionQuery, near_model: AccuracyModel) -> np.ndarray:
    hi = q.req_sweep_max
    if hi is None:
        hi = q.xi_req_near + 0.8 * (near_model.a2 - q.xi_req_near)
    if hi < q.xi_req_near:
        raise ValueError("req_sweep_max below the base requirement")
    return np.linspace(q.xi_req_near, hi, q.sweep_points)


def _noma_power_total(q: RegionQuery, near_model: AccuracyModel,
                      far_model: AccuracyModel, level: float,
                      rho_n: float) -> float:
    """Total power share when the near user is allocated rho_n; NaN invalid."""
    g_n, g_f = _gains(q.scenario)
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    pref_f = rate_prefactor(q.far_profile, w)
    need_n = max(gamma_required(near_model, level),
                 gamma_required(near_model, q.rate_req_near / pref_n))
    rho_n_min = max(0.0, need_n / g_n)
    if rho_n + _FEAS_TOL < rho_n_min or rho_n > 1.0 + _FEAS_TOL:
        return math.nan
    need_f = max(gamma_required(far_model, q.xi_req_far),
                 gamma_required(far_model, q.rate_req_far / pref_f))
    if math.isinf(need_f) and need_f > 0:
        return math.nan
    rho_f = max(0.0, need_f * (1.0 / g_f + rho_n))
    if rho_f > 1.0 + _FEAS_TOL or rho_n + rho_f > 1.0 + _FEAS_TOL:
        return math.nan
    return rho_n + rho_f


def noma_power_region(q: RegionQuery, near_model: AccuracyModel,
                      far_model: AccuracyModel,
                      req_levels: np.ndarray | None = None) -> RegionCurve:
    """Minimum total power share per near accuracy requirement level.

    Closed form: the total rho_n + max(0, need_f * (1/g_f + rho_n)) and
    every feasibility limit only grow with rho_n, so the minimum sits at
    the smallest near share that meets the near requirements.
    """
    g_n, _ = _gains(q.scenario)
    levels = _req_levels(q, near_model) if req_levels is None else np.asarray(req_levels)
    pref_n = rate_prefactor(q.near_profile, q.scenario.bandwidth_hz)
    p_max = q.scenario.p_max_watts

    pts = []
    for level in levels:
        need_n = max(gamma_required(near_model, level),
                     gamma_required(near_model, q.rate_req_near / pref_n))
        rho_lo = max(0.0, need_n / g_n)
        total = (_noma_power_total(q, near_model, far_model, level, rho_lo)
                 if rho_lo <= 1.0 else math.nan)
        pts.append(RegionPoint(float(level), total * p_max, not math.isnan(total)))
    return RegionCurve("noma-power", tuple(pts))


def _oma_power_total(q: RegionQuery, near_model: AccuracyModel,
                     far_model: AccuracyModel, level: float, w_n) -> np.ndarray:
    """Total power share for each near bandwidth slice in w_n; NaN where
    the split is invalid."""
    g_n, g_f = _gains(q.scenario)
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    pref_f = rate_prefactor(q.far_profile, w)
    w_n = np.asarray(w_n, dtype=float)
    w_f = w - w_n

    # slices of zero width divide by zero here; the mask below drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        acc_rate_n = q.rate_req_near * w / (pref_n * w_n)
        need_n = np.maximum(gamma_required(near_model, level),
                            gamma_required(near_model, acc_rate_n))
        rho_n = np.maximum(0.0, need_n * w_n / (w * g_n))
        acc_rate_f = q.rate_req_far * w / (pref_f * w_f)
        need_f = np.maximum(gamma_required(far_model, q.xi_req_far),
                            gamma_required(far_model, acc_rate_f))
        rho_f = np.maximum(0.0, need_f * w_f / (w * g_f))
    # an unreachable requirement (need = +inf) makes the total +inf
    total = rho_n + rho_f
    valid = (w_n > 0.0) & (w_f > 0.0) & (total <= 1.0 + _FEAS_TOL)
    return np.where(valid, total, np.nan)


def oma_power_region(q: RegionQuery, near_model: AccuracyModel,
                     far_model: AccuracyModel,
                     req_levels: np.ndarray | None = None) -> RegionCurve:
    """Minimum total power share per near accuracy requirement level.

    Inner exhaustive search over the near bandwidth slice, starting at
    the smallest slice that can carry the near rate requirement.
    """
    levels = _req_levels(q, near_model) if req_levels is None else np.asarray(req_levels)
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    p_max = q.scenario.p_max_watts
    w_lo = q.rate_req_near * w / pref_n  # rate needs at least this slice at accuracy 1

    pts = []
    for level in levels:
        if w_lo >= w:
            pts.append(RegionPoint(float(level), math.nan, False))
            continue
        grid = np.linspace(max(w_lo, w / q.grid_points), w, q.grid_points, endpoint=False)
        vals = _oma_power_total(q, near_model, far_model, level, grid)
        if np.all(np.isnan(vals)):
            pts.append(RegionPoint(float(level), math.nan, False))
            continue
        i = int(np.nanargmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        _, best = _refine_extremum(
            lambda wn: _oma_power_total(q, near_model, far_model, level, wn),
            lo, hi, grid[i], maximize=False)
        pts.append(RegionPoint(float(level), float(best) * p_max, True))
    return RegionCurve("oma-power", tuple(pts))
