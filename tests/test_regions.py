import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nomalink.config import RegionSection, RequirementCase
from nomalink.regions import (RegionCurve, RegionPoint, _linspace_rows,
                              _oma_power_total, _oma_rate_at, _oma_search,
                              _refine_extremum, default_rate_grid,
                              noma_power_region, noma_rate_region,
                              oma_power_region, oma_rate_region)
from nomalink.srate import TRUE_IMAGE_CURVE, TRUE_TEXT_CURVE, gamma_required, xi_eval

TEXT = TRUE_TEXT_CURVE
IMAGE = TRUE_IMAGE_CURVE
# semantic rate per unit accuracy of the shipped text and image users:
# 12 Hz over 128 symbols per word, and over a compression ratio of 0.33
PREF_N, PREF_F = 12.0 / 128.0, 12.0 / 0.33


def _ys(curve) -> np.ndarray:
    return np.array([p.y for p in curve.points])


def _names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def shipped(**overrides) -> tuple[RegionSection, RequirementCase]:
    """The shipped region section at a unit power ceiling and coarse grids,
    with a requirement case of far accuracy 0.7 and no rate requirement.
    Each override sets the section's or the case's field of its name;
    xi_req_far sets both."""
    region = dict(p_max_watts=1.0, grid_points=256, sweep_points=9)
    case = dict(xi_req_far=0.7, rate_req_near=0.0, rate_req_far=0.0)
    for key, value in overrides.items():
        assert key in _names(RegionSection) | _names(RequirementCase), key
        if key in _names(RegionSection):
            region[key] = value
        if key in _names(RequirementCase):
            case[key] = value
    return RegionSection(**region), RequirementCase(**case)


@pytest.mark.parametrize("key, bad", [
    ("bandwidth_hz", 0.0), ("bandwidth_hz", 5e-324), ("bandwidth_hz", 1e300),
    ("p_max_watts", -1.0), ("p_max_watts", 1.1e12), ("gain_near_db", 100.5),
    ("gain_far_db", -1e300), ("xi_req_near", 0.0), ("xi_req_far", 1.0),
    ("rate_req_near", -1e-9), ("rate_req_far", 1e308), ("grid_points", 7),
    ("sweep_points", 1),
])
def test_query_rejects_out_of_range_settings_naming_them(key, bad):
    # the config's region section and requirement case check their own keys
    owners = [cls for cls in (RegionSection, RequirementCase) if key in _names(cls)]
    assert owners
    for cls in owners:
        with pytest.raises(ValueError, match=key):
            cls(**{key: bad})


def test_refine_approaches_cliff_from_inside():
    # objective rises right up to a feasibility edge and is NaN beyond it
    def fun(x):
        return np.where(x <= 0.7, x, math.nan)

    x, v = _refine_extremum(fun, 0.6, 0.9, 0.65, maximize=True)
    assert math.isfinite(v)
    assert 0.65 <= v <= 0.7  # never undercuts the attained start, never crosses
    assert v > 0.699


def test_refine_converges_on_smooth_minimum():
    x, v = _refine_extremum(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.5, maximize=False)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_default_rate_grid_span():
    r, _ = shipped()
    grid = default_rate_grid(r, TEXT)
    assert len(grid) == 9
    assert grid[0] == pytest.approx(PREF_N * 0.6)
    cap = TEXT.a2 - 0.05 * (TEXT.a2 - TEXT.a1)
    assert grid[-1] <= PREF_N * cap + 1e-12
    assert np.all(np.diff(grid) > 0)


def test_default_rate_grid_collapses_above_ceiling():
    r, _ = shipped(xi_req_near=0.93)  # above the sweep cap
    grid = default_rate_grid(r, TEXT)
    assert len(grid) == 1


def test_noma_rate_point_matches_hand_computation():
    r, _ = shipped()
    rate_n = PREF_N * 0.8
    curve = noma_rate_region(r, TEXT, IMAGE, np.array([rate_n]))
    rho_n = gamma_required(TEXT, 0.8) / 100.0
    gamma_f = (1 - rho_n) * 10**1.6 / (rho_n * 10**1.6 + 1)
    want = PREF_F * xi_eval(IMAGE, gamma_f)
    assert curve.points[0].feasible
    assert curve.points[0].y == pytest.approx(want, rel=1e-12)


def test_noma_rate_matches_dense_oracle():
    r, _ = shipped()
    grid = default_rate_grid(r, TEXT)
    curve = noma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))
    ref = oracles.dense_noma_rate(TEXT, IMAGE, 100.0, 10**1.6, PREF_N, PREF_F, 0.7, grid)
    got = _ys(curve)
    assert np.allclose(got[~np.isnan(ref)], ref[~np.isnan(ref)], rtol=1e-12)


def test_oma_rate_close_to_dense_oracle():
    r, _ = shipped(grid_points=1024)
    grid = default_rate_grid(r, TEXT)
    curve = oma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))
    ref = oracles.dense_oma_rate(TEXT, IMAGE, 100.0, 10**1.6, 12.0, PREF_N, PREF_F,
                                 0.6, 0.7, grid, 8192)
    got = _ys(curve)
    mask = ~np.isnan(ref)
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))
    # exhaustive-plus-refinement can only improve on the coarse oracle grid
    assert np.all(got[mask] >= ref[mask] - 1e-9)


def test_noma_rate_region_contains_oma():
    r, _ = shipped()
    noma = noma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))
    oma = oma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))
    for pn, po in zip(noma.points, oma.points):
        assert pn.x == po.x
        if po.feasible:
            assert pn.feasible
            assert pn.y >= po.y - 1e-9


def test_noma_power_matches_dense_oracle():
    r, case = shipped()
    levels = np.linspace(0.6, 0.84, 5)
    curve = noma_power_region(r, case, TEXT, IMAGE, req_levels=levels)
    ref = oracles.dense_noma_power(TEXT, IMAGE, 100.0, 10**1.6, PREF_N, PREF_F,
                                   0.7, 0.0, 0.0, levels, 4096)
    got = _ys(curve)
    mask = ~np.isnan(ref)
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))
    assert np.all(got[mask] <= ref[mask] + 1e-9)


def _scalar_noma_power(r, case, level):
    """The NOMA total power share at the smallest near share that meets the
    near requirements, one level at a time, from the oracle helpers."""
    w = r.bandwidth_hz
    tn = (TEXT.a1, TEXT.a2, TEXT.c1, TEXT.c2)
    tf = (IMAGE.a1, IMAGE.a2, IMAGE.c1, IMAGE.c2)
    need_n = max(oracles._gamma_needed(*tn, level),
                 oracles._gamma_needed(*tn, case.rate_req_near / (w / r.text_k_symbols)))
    need_f = max(oracles._gamma_needed(*tf, case.xi_req_far),
                 oracles._gamma_needed(*tf, case.rate_req_far / (w / r.image_compression)))
    rho_n = max(0.0, need_n / 100.0)
    if rho_n > 1.0 or need_f == math.inf:
        return math.nan
    tot = rho_n + max(0.0, need_f * (1.0 / 10**1.6 + rho_n))
    return tot if tot <= 1.0 + 1e-9 else math.nan


def test_noma_power_is_the_total_at_the_smallest_near_share():
    for r, case in (shipped(), shipped(rate_req_near=0.075, rate_req_far=5.0,
                                       xi_req_far=0.75)):
        levels = np.linspace(0.6, 0.84, 5)
        curve = noma_power_region(r, case, TEXT, IMAGE, req_levels=levels)
        want = np.array([_scalar_noma_power(r, case, level) for level in levels])
        assert [p.feasible for p in curve.points] == list(~np.isnan(want))
        np.testing.assert_allclose(_ys(curve), want, rtol=1e-13, atol=0)


def _scalar_oma_rate(r, rate_n, w_n):
    """The per-split OMA far rate, one slice at a time, from the oracle helpers."""
    w = r.bandwidth_hz
    pref_n = w / r.text_k_symbols
    pref_f = w / r.image_compression
    tn = (TEXT.a1, TEXT.a2, TEXT.c1, TEXT.c2)
    tf = (IMAGE.a1, IMAGE.a2, IMAGE.c1, IMAGE.c2)
    if w_n <= 0.0:
        if rate_n > 0.0 or r.xi_req_near >= TEXT.a2:
            return math.nan
        rho = 0.0
    else:
        need = max(oracles._gamma_needed(*tn, rate_n * w / (pref_n * w_n)),
                   oracles._gamma_needed(*tn, r.xi_req_near))
        rho = max(0.0, need * w_n / (w * 100.0))
    if rho > 1.0 + 1e-9:
        return math.nan
    w_f = w - w_n
    if w_f <= 0.0:
        return 0.0 if r.xi_req_far < IMAGE.a2 else math.nan
    acc_f = oracles._xi(*tf, (1.0 - rho) * 10**1.6 * w / w_f)
    return pref_f * (w_f / w) * acc_f if acc_f + 1e-9 >= r.xi_req_far else math.nan


def _scalar_oma_power(r, case, level, w_n):
    """The per-split OMA total power share, one slice at a time."""
    w = r.bandwidth_hz
    pref_n = w / r.text_k_symbols
    pref_f = w / r.image_compression
    tn = (TEXT.a1, TEXT.a2, TEXT.c1, TEXT.c2)
    tf = (IMAGE.a1, IMAGE.a2, IMAGE.c1, IMAGE.c2)
    w_f = w - w_n
    if w_n <= 0.0 or w_f <= 0.0:
        return math.nan
    need_n = max(oracles._gamma_needed(*tn, level),
                 oracles._gamma_needed(*tn, case.rate_req_near * w / (pref_n * w_n)))
    need_f = max(oracles._gamma_needed(*tf, case.xi_req_far),
                 oracles._gamma_needed(*tf, case.rate_req_far * w / (pref_f * w_f)))
    if math.inf in (need_n, need_f):
        return math.nan
    tot = max(0.0, need_n * w_n / (w * 100.0)) + max(0.0, need_f * w_f / (w * 10**1.6))
    return tot if tot <= 1.0 + 1e-9 else math.nan


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75),
    dict(xi_req_far=0.95),  # above the far ceiling: only corners can qualify
])
def test_array_split_evaluations_match_scalar_loops(overrides):
    # every slice including both corners, where a user gets no bandwidth
    r, case = shipped(**overrides)
    w_n = np.concatenate([np.linspace(0.0, 12.0, 257), [1e-300, 12.0 - 1e-12]])
    far_rate = _oma_rate_at(r, TEXT, IMAGE)
    total_power = _oma_power_total(r, case, TEXT, IMAGE)
    for rate_n in (0.0, PREF_N * 0.6, PREF_N * 0.8, PREF_N * 0.99):
        got = far_rate(rate_n, w_n)
        want = np.array([_scalar_oma_rate(r, rate_n, x) for x in w_n])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    for level in (0.6, 0.7, 0.84, 0.96):
        got = total_power(gamma_required(TEXT, level), w_n)
        want = np.array([_scalar_oma_power(r, case, level, x) for x in w_n])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


_bracket_ends = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_bracket_ends, st.one_of(
    st.just("zero"), st.just("ulp"), st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-320))), min_size=1, max_size=6),
    n=st.integers(min_value=2, max_value=40))
def test_row_linspace_is_np_linspace_bit_for_bit(rows, n):
    # zero-width, one-ulp, subnormal-width and wide brackets, several per call
    a = np.array([lo for lo, _ in rows])
    b = np.array([lo if w == "zero" else np.nextafter(lo, np.inf) if w == "ulp"
                  else lo + w for lo, w in rows])
    want = np.stack([np.linspace(lo, hi, n) for lo, hi in zip(a, b)])
    assert np.array_equal(_bits(_linspace_rows(a, b, n)), _bits(want))
    assert np.array_equal(_bits(_linspace_rows(a[0], b[0], n)), _bits(want[0]))


def _loop_refine(fun, lo, hi, best_x, maximize):
    """The scalar zoom refinement of one bracket, one np.linspace per round."""
    sign = -1.0 if maximize else 1.0

    def value(x):
        v = sign * fun(x)
        return np.where(np.isfinite(v), v, np.inf)

    a, b = lo, hi
    x_best, v_best = best_x, value(best_x)
    for _ in range(10):
        xs = np.linspace(a, b, 33)
        vals = value(xs)
        i = int(np.argmin(vals))
        if vals[i] < v_best:
            x_best, v_best = xs[i], vals[i]
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
    return fun(x_best)


def _loop_search(fun, rows, grid, maximize):
    """The per-row OMA search: a coarse grid and a refinement per row."""
    out = []
    for r in rows:
        vals = fun(r, grid)
        if np.all(np.isnan(vals)):
            out.append(math.nan)
            continue
        i = int(np.nanargmax(vals) if maximize else np.nanargmin(vals))
        out.append(float(_loop_refine(lambda x: fun(r, x), grid[max(i - 1, 0)],
                                      grid[min(i + 1, len(grid) - 1)], grid[i], maximize)))
    return np.array(out)


def _loop_oma_rate(r, rates):
    w_grid = np.linspace(0.0, r.bandwidth_hz, r.grid_points, endpoint=False)
    return _loop_search(_oma_rate_at(r, TEXT, IMAGE), rates, w_grid, True)


def _loop_oma_power(r, case, levels):
    w = r.bandwidth_hz
    w_lo = case.rate_req_near * w / (w / r.text_k_symbols)
    if w_lo >= w:
        return np.full(len(levels), math.nan)
    grid = np.linspace(max(w_lo, w / r.grid_points), w, r.grid_points, endpoint=False)
    total_power = _oma_power_total(r, case, TEXT, IMAGE)
    return r.p_max_watts * _loop_search(
        lambda lv, x: total_power(gamma_required(TEXT, lv), x), levels, grid, False)


def _same_curve(curve, want):
    got = _ys(curve)
    assert [p.feasible for p in curve.points] == list(~np.isnan(want))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(_bits(got[~np.isnan(got)]), _bits(want[~np.isnan(want)]))


@settings(max_examples=40, deadline=None)
@given(gain_near=st.floats(0.0, 30.0), gain_gap=st.floats(0.0, 20.0),
       bandwidth=st.floats(0.5, 50.0), p_max=st.floats(0.1, 1e6),
       xi_near=st.floats(0.12, 0.94), xi_far=st.floats(0.06, 0.97),
       rate_near=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
       rate_far=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
       grid_points=st.integers(8, 300), sweep=st.integers(2, 9))
def test_row_batched_oma_curves_equal_the_per_row_loop(gain_near, gain_gap, bandwidth, p_max,
                                                        xi_near, xi_far, rate_near, rate_far,
                                                        grid_points, sweep):
    # xi_far reaches above the far ceiling 0.90, rate_near above a whole band
    r, case = shipped(gain_near_db=gain_near, gain_far_db=gain_near - gain_gap,
                      bandwidth_hz=bandwidth, p_max_watts=p_max,
                      xi_req_near=xi_near, xi_req_far=xi_far,
                      rate_req_near=rate_near, rate_req_far=rate_far,
                      grid_points=grid_points, sweep_points=sweep)
    rates = np.concatenate([[0.0], default_rate_grid(r, TEXT)])  # with a zero near rate
    _same_curve(oma_rate_region(r, TEXT, IMAGE, rates), _loop_oma_rate(r, rates))
    levels = np.linspace(xi_near, 0.94, sweep)
    _same_curve(oma_power_region(r, case, TEXT, IMAGE, levels),
                _loop_oma_power(r, case, levels))


def test_rows_without_a_valid_grid_point_stay_infeasible():
    # row 0 is valid only between the first two grid points, where the
    # refinement would reach; a row needs a valid coarse point to count
    grid = np.linspace(0.0, 1.0, 8, endpoint=False)

    def fun(r, x):
        return np.where(((x > 0.01) & (x < 0.1)) | ((r > 0.5) & (x >= 0.5)), r + x, np.nan)

    got = _oma_search(fun, np.array([0.0, 1.0]), grid, maximize=True)
    assert math.isnan(got[0])
    assert got[1] == 1.875


def test_oma_rate_search_memory_is_bounded():
    # the coarse grid is evaluated a few rows at a time, not all 33 x 2048 at once
    r, _ = shipped(grid_points=2048, sweep_points=33)
    oma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))  # warm up imports and caches
    tracemalloc.start()
    try:
        curve = oma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve.points) == 33 and curve.feasible
    assert peak < 2.5e6, f"peak {peak / 1e6:.2f} MB"


def test_oma_power_close_to_dense_oracle():
    r, case = shipped(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    levels = np.linspace(0.6, 0.84, 5)
    curve = oma_power_region(r, case, TEXT, IMAGE, req_levels=levels)
    ref = oracles.dense_oma_power(TEXT, IMAGE, 100.0, 10**1.6, 12.0, PREF_N, PREF_F,
                                  0.75, 0.075, 5.0, levels, 4096)
    got = _ys(curve)
    mask = ~np.isnan(ref)
    assert mask.any()
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))


def test_power_curves_monotone_in_level():
    r, case = shipped(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    levels = np.linspace(0.6, 0.84, 7)
    for region in (noma_power_region, oma_power_region):
        ys = _ys(region(r, case, TEXT, IMAGE, req_levels=levels))
        ok = ~np.isnan(ys)
        assert np.all(np.diff(ys[ok]) >= -1e-9)


@pytest.mark.parametrize("bump", [
    dict(xi_req_far=0.78),
    dict(rate_req_near=0.085),
    dict(rate_req_far=5.5),
])
def test_raising_any_requirement_never_lowers_power(bump):
    r, base = shipped(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    bumped = dataclasses.replace(base, **bump)
    levels = np.array([0.6])
    for region in (noma_power_region, oma_power_region):
        p0 = region(r, base, TEXT, IMAGE, req_levels=levels).points[0]
        p1 = region(r, bumped, TEXT, IMAGE, req_levels=levels).points[0]
        if p0.feasible:
            # tighter demand: either dearer or newly infeasible (cost -> inf)
            assert (not p1.feasible) or p1.y >= p0.y - 1e-9


def test_unreachable_far_requirement_gives_empty_curves():
    r, case = shipped(xi_req_far=0.95)  # above the far accuracy ceiling 0.90
    assert not noma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT)).feasible
    assert not oma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT)).feasible
    assert not noma_power_region(r, case, TEXT, IMAGE, np.linspace(0.6, 0.88, 9)).feasible
    assert not oma_power_region(r, case, TEXT, IMAGE, np.linspace(0.6, 0.88, 9)).feasible


def test_oma_power_infeasible_when_rate_exceeds_bandwidth():
    r, case = shipped(rate_req_near=1.5 * PREF_N)
    curve = oma_power_region(r, case, TEXT, IMAGE, req_levels=np.array([0.6]))
    assert not curve.feasible


def test_infeasible_points_carry_nan_y():
    r, _ = shipped(xi_req_far=0.95)
    for p in noma_rate_region(r, TEXT, IMAGE, default_rate_grid(r, TEXT)).points:
        assert not p.feasible and math.isnan(p.y)


def test_curve_accessors():
    c = RegionCurve("noma-rate", (RegionPoint(0.0, 1.0, True),
                                  RegionPoint(1.0, math.nan, False)))
    assert c.feasible
    assert c.dropped == 1
    assert _ys(c)[0] == 1.0 and math.isnan(_ys(c)[1])


def test_query_validation():
    with pytest.raises(ValueError):
        shipped(xi_req_near=0.0)
    with pytest.raises(ValueError):
        shipped(xi_req_far=1.0)
    with pytest.raises(ValueError):
        shipped(rate_req_near=-0.1)
    with pytest.raises(ValueError):
        shipped(grid_points=4)
    with pytest.raises(ValueError):
        shipped(sweep_points=1)
