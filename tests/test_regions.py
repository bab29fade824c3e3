import dataclasses
import math

import numpy as np
import pytest

import oracles
from nomalink.link import LinkScenario
from nomalink.regions import (RegionCurve, RegionPoint, RegionQuery,
                              _noma_power_total, _oma_power_total, _oma_rate_at,
                              _refine_extremum, default_rate_grid,
                              noma_power_region, noma_rate_region,
                              oma_power_region, oma_rate_region)
from nomalink.srate import (TRUE_IMAGE_CURVE, TRUE_TEXT_CURVE, gamma_required,
                            image_profile, rate_prefactor, text_profile,
                            xi_eval)

TEXT = TRUE_TEXT_CURVE
IMAGE = TRUE_IMAGE_CURVE


def shipped_query(**overrides) -> RegionQuery:
    sc = LinkScenario(gain_near_db=20, gain_far_db=16,
                      bandwidth_hz=12.0, p_max_watts=1.0)
    base = dict(scenario=sc, near_profile=text_profile(128.0),
                far_profile=image_profile(0.33), xi_req_near=0.6,
                xi_req_far=0.7, grid_points=256, sweep_points=9)
    base.update(overrides)
    return RegionQuery(**base)


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
    q = shipped_query()
    grid = default_rate_grid(q, TEXT)
    pref_n = rate_prefactor(q.near_profile, 12.0)
    assert len(grid) == 9
    assert grid[0] == pytest.approx(pref_n * 0.6)
    cap = TEXT.a2 - 0.05 * (TEXT.a2 - TEXT.a1)
    assert grid[-1] <= pref_n * cap + 1e-12
    assert np.all(np.diff(grid) > 0)


def test_default_rate_grid_collapses_above_ceiling():
    q = shipped_query(xi_req_near=0.93)  # above the sweep cap
    grid = default_rate_grid(q, TEXT)
    assert len(grid) == 1


def test_noma_rate_point_matches_hand_computation():
    q = shipped_query()
    pref_n = rate_prefactor(q.near_profile, 12.0)
    pref_f = rate_prefactor(q.far_profile, 12.0)
    rate_n = pref_n * 0.8
    curve = noma_rate_region(q, TEXT, IMAGE, gamma_grid=np.array([rate_n]))
    rho_n = gamma_required(TEXT, 0.8) / 100.0
    gamma_f = (1 - rho_n) * 10**1.6 / (rho_n * 10**1.6 + 1)
    want = pref_f * xi_eval(IMAGE, gamma_f)
    assert curve.points[0].feasible
    assert curve.points[0].y == pytest.approx(want, rel=1e-12)


def test_noma_rate_matches_dense_oracle():
    q = shipped_query()
    grid = default_rate_grid(q, TEXT)
    curve = noma_rate_region(q, TEXT, IMAGE)
    ref = oracles.dense_noma_rate(TEXT, IMAGE, 100.0, 10**1.6,
                                  rate_prefactor(q.near_profile, 12.0),
                                  rate_prefactor(q.far_profile, 12.0),
                                  0.7, grid)
    got = curve.ys()
    assert np.allclose(got[~np.isnan(ref)], ref[~np.isnan(ref)], rtol=1e-12)


def test_oma_rate_close_to_dense_oracle():
    q = shipped_query(grid_points=1024)
    grid = default_rate_grid(q, TEXT)
    curve = oma_rate_region(q, TEXT, IMAGE)
    ref = oracles.dense_oma_rate(TEXT, IMAGE, 100.0, 10**1.6, 12.0,
                                 rate_prefactor(q.near_profile, 12.0),
                                 rate_prefactor(q.far_profile, 12.0),
                                 0.6, 0.7, grid, 8192)
    got = curve.ys()
    mask = ~np.isnan(ref)
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))
    # exhaustive-plus-refinement can only improve on the coarse oracle grid
    assert np.all(got[mask] >= ref[mask] - 1e-9)


def test_noma_rate_region_contains_oma():
    q = shipped_query()
    noma = noma_rate_region(q, TEXT, IMAGE)
    oma = oma_rate_region(q, TEXT, IMAGE)
    for pn, po in zip(noma.points, oma.points):
        assert pn.x == po.x
        if po.feasible:
            assert pn.feasible
            assert pn.y >= po.y - 1e-9


def test_noma_power_matches_dense_oracle():
    q = shipped_query()
    levels = np.linspace(0.6, 0.84, 5)
    curve = noma_power_region(q, TEXT, IMAGE, req_levels=levels)
    ref = oracles.dense_noma_power(TEXT, IMAGE, 100.0, 10**1.6,
                                   rate_prefactor(q.near_profile, 12.0),
                                   rate_prefactor(q.far_profile, 12.0),
                                   0.7, 0.0, 0.0, levels, 4096)
    got = curve.ys()
    mask = ~np.isnan(ref)
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))
    assert np.all(got[mask] <= ref[mask] + 1e-9)


def test_noma_power_is_the_total_at_the_smallest_near_share():
    for q in (shipped_query(), shipped_query(rate_req_near=0.075, rate_req_far=5.0,
                                             xi_req_far=0.75)):
        levels = np.linspace(0.6, 0.84, 5)
        curve = noma_power_region(q, TEXT, IMAGE, req_levels=levels)
        pref_n = rate_prefactor(q.near_profile, 12.0)
        for level, p in zip(levels, curve.points):
            need_n = max(gamma_required(TEXT, level),
                         gamma_required(TEXT, q.rate_req_near / pref_n))
            rho_lo = max(0.0, need_n / 100.0)
            want = _noma_power_total(q, TEXT, IMAGE, level, rho_lo)
            assert p.feasible == (not math.isnan(want))
            assert p.y == want or (math.isnan(p.y) and math.isnan(want))


def _scalar_oma_rate(q, rate_n, w_n):
    """The per-split OMA far rate, one slice at a time, from the oracle helpers."""
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    pref_f = rate_prefactor(q.far_profile, w)
    tn = (TEXT.a1, TEXT.a2, TEXT.c1, TEXT.c2)
    tf = (IMAGE.a1, IMAGE.a2, IMAGE.c1, IMAGE.c2)
    if w_n <= 0.0:
        if rate_n > 0.0 or q.xi_req_near >= TEXT.a2:
            return math.nan
        rho = 0.0
    else:
        need = max(oracles._gamma_needed(*tn, rate_n * w / (pref_n * w_n)),
                   oracles._gamma_needed(*tn, q.xi_req_near))
        rho = max(0.0, need * w_n / (w * 100.0))
    if rho > 1.0 + 1e-9:
        return math.nan
    w_f = w - w_n
    if w_f <= 0.0:
        return 0.0 if q.xi_req_far < IMAGE.a2 else math.nan
    acc_f = oracles._xi(*tf, (1.0 - rho) * 10**1.6 * w / w_f)
    return pref_f * (w_f / w) * acc_f if acc_f + 1e-9 >= q.xi_req_far else math.nan


def _scalar_oma_power(q, level, w_n):
    """The per-split OMA total power share, one slice at a time."""
    w = q.scenario.bandwidth_hz
    pref_n = rate_prefactor(q.near_profile, w)
    pref_f = rate_prefactor(q.far_profile, w)
    tn = (TEXT.a1, TEXT.a2, TEXT.c1, TEXT.c2)
    tf = (IMAGE.a1, IMAGE.a2, IMAGE.c1, IMAGE.c2)
    w_f = w - w_n
    if w_n <= 0.0 or w_f <= 0.0:
        return math.nan
    need_n = max(oracles._gamma_needed(*tn, level),
                 oracles._gamma_needed(*tn, q.rate_req_near * w / (pref_n * w_n)))
    need_f = max(oracles._gamma_needed(*tf, q.xi_req_far),
                 oracles._gamma_needed(*tf, q.rate_req_far * w / (pref_f * w_f)))
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
    q = shipped_query(**overrides)
    w_n = np.concatenate([np.linspace(0.0, 12.0, 257), [1e-300, 12.0 - 1e-12]])
    pref_n = rate_prefactor(q.near_profile, 12.0)
    for rate_n in (0.0, pref_n * 0.6, pref_n * 0.8, pref_n * 0.99):
        got = _oma_rate_at(q, TEXT, IMAGE, rate_n, w_n)
        want = np.array([_scalar_oma_rate(q, rate_n, x) for x in w_n])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    for level in (0.6, 0.7, 0.84, 0.96):
        got = _oma_power_total(q, TEXT, IMAGE, level, w_n)
        want = np.array([_scalar_oma_power(q, level, x) for x in w_n])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_oma_power_close_to_dense_oracle():
    q = shipped_query(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    levels = np.linspace(0.6, 0.84, 5)
    curve = oma_power_region(q, TEXT, IMAGE, req_levels=levels)
    ref = oracles.dense_oma_power(TEXT, IMAGE, 100.0, 10**1.6, 12.0,
                                  rate_prefactor(q.near_profile, 12.0),
                                  rate_prefactor(q.far_profile, 12.0),
                                  0.75, 0.075, 5.0, levels, 4096)
    got = curve.ys()
    mask = ~np.isnan(ref)
    assert mask.any()
    assert np.all(np.abs(got[mask] - ref[mask]) <= 0.005 * np.abs(ref[mask]))


def test_power_curves_monotone_in_level():
    q = shipped_query(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    levels = np.linspace(0.6, 0.84, 7)
    for region in (noma_power_region, oma_power_region):
        ys = region(q, TEXT, IMAGE, req_levels=levels).ys()
        ok = ~np.isnan(ys)
        assert np.all(np.diff(ys[ok]) >= -1e-9)


@pytest.mark.parametrize("bump", [
    dict(xi_req_far=0.78),
    dict(rate_req_near=0.085),
    dict(rate_req_far=5.5),
])
def test_raising_any_requirement_never_lowers_power(bump):
    base = shipped_query(rate_req_near=0.075, rate_req_far=5.0, xi_req_far=0.75)
    bumped = dataclasses.replace(base, **bump)
    levels = np.array([0.6])
    for region in (noma_power_region, oma_power_region):
        p0 = region(base, TEXT, IMAGE, req_levels=levels).points[0]
        p1 = region(bumped, TEXT, IMAGE, req_levels=levels).points[0]
        if p0.feasible:
            # tighter demand: either dearer or newly infeasible (cost -> inf)
            assert (not p1.feasible) or p1.y >= p0.y - 1e-9


def test_unreachable_far_requirement_gives_empty_curves():
    q = shipped_query(xi_req_far=0.95)  # above the far accuracy ceiling 0.90
    assert not noma_rate_region(q, TEXT, IMAGE).feasible
    assert not oma_rate_region(q, TEXT, IMAGE).feasible
    assert not noma_power_region(q, TEXT, IMAGE).feasible
    assert not oma_power_region(q, TEXT, IMAGE).feasible


def test_oma_power_infeasible_when_rate_exceeds_bandwidth():
    pref_n = rate_prefactor(text_profile(128.0), 12.0)
    q = shipped_query(rate_req_near=1.5 * pref_n)
    curve = oma_power_region(q, TEXT, IMAGE, req_levels=np.array([0.6]))
    assert not curve.feasible


def test_infeasible_points_carry_nan_y():
    q = shipped_query(xi_req_far=0.95)
    for p in noma_rate_region(q, TEXT, IMAGE).points:
        assert not p.feasible and math.isnan(p.y)


def test_curve_accessors():
    c = RegionCurve("noma-rate", (RegionPoint(0.0, 1.0, True),
                                  RegionPoint(1.0, math.nan, False)))
    assert c.feasible
    assert c.dropped == 1
    assert np.array_equal(c.xs(), [0.0, 1.0])
    assert c.ys()[0] == 1.0 and math.isnan(c.ys()[1])


def test_query_validation():
    with pytest.raises(ValueError):
        shipped_query(xi_req_near=0.0)
    with pytest.raises(ValueError):
        shipped_query(xi_req_far=1.0)
    with pytest.raises(ValueError):
        shipped_query(rate_req_near=-0.1)
    with pytest.raises(ValueError):
        shipped_query(grid_points=4)
    with pytest.raises(ValueError):
        shipped_query(sweep_points=1)
