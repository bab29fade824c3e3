import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nomalink import quant
from nomalink.quant import (EPS_RANGE, QuantRangeError, dequantize, fit_quantizer, quantize,
                            round_half_away)


def test_round_half_away_ties():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 0.49, -0.49])
    assert np.array_equal(round_half_away(x), [1, -1, 2, -2, 3, 0, -0.0])


def test_default_quantizer_frozen_values():
    q = fit_quantizer(2, 5.0, 1.0)
    assert q.scale_fs == pytest.approx(oracles.EXPECTED_SCALE_FS, abs=1e-15)
    assert q.zero_pz == oracles.EXPECTED_ZERO_PZ
    assert np.allclose(q.constellation_deq,
                       oracles.EXPECTED_CONSTELLATION_M2_S5_D1, atol=1e-12)
    assert 1 / q.scale_fs == pytest.approx(10.0 / 3.0, abs=1e-12)


def test_matches_exact_arithmetic_oracle():
    for m in (1, 2, 3, 5, 8):
        for s, d in [(5, 1), (2.5, 0.5), (12, 11), (7, 0.25)]:
            q = fit_quantizer(m, s, d)
            fs, pz, levels = oracles.oracle_quantizer(m, s, d)
            assert q.scale_fs == pytest.approx(float(fs), rel=1e-15)
            assert q.zero_pz == pz
            assert np.allclose(q.constellation_deq,
                               [float(v) for v in levels], rtol=1e-13)


def test_zero_always_in_constellation_grid():
    # every m and a 20x20 (s, d) grid: 0.0 is an exact constellation point
    for m in range(1, 9):
        for s in np.linspace(0.5, 50.0, 20):
            for frac in np.linspace(0.05, 0.95, 20):
                q = fit_quantizer(m, s, frac * s)
                assert 0.0 in q.constellation_deq


@given(m=st.integers(1, 8),
       s=st.floats(0.1, 100.0, allow_nan=False),
       frac=st.floats(0.01, 0.99),
       u=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_round_trip_error_bounded(m, s, frac, u):
    d = frac * s
    if not 0 < d < s:
        return
    q = fit_quantizer(m, s, d)
    x = d + s * u  # in-range by construction
    err = abs(float(dequantize(quantize(np.array([x]), q), q)[0]) - x)
    assert err <= 1 / q.scale_fs + 1e-9


@given(m=st.integers(1, 8), s=st.floats(0.1, 50.0), frac=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_quantize_dequantize_idempotent(m, s, frac):
    d = frac * s
    if not 0 < d < s:
        return
    q = fit_quantizer(m, s, d)
    deq = q.constellation_deq
    # only levels inside the analog range can be re-quantized
    ok = np.abs(deq - d) <= s + EPS_RANGE
    idx = np.arange(q.levels)[ok]
    assert np.array_equal(quantize(deq[ok], q), idx)


@given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_quantize_monotone(a, b):
    q = fit_quantizer(3, 5.0, 1.0)
    lo, hi = sorted((1.0 + 5.0 * a, 1.0 + 5.0 * b))
    i_lo, i_hi = quantize(np.array([lo, hi]), q)
    assert i_lo <= i_hi


def test_quantize_agrees_with_oracle_samples():
    q = fit_quantizer(3, 5.0, 1.0)
    xs = np.linspace(-4.0, 6.0, 101)
    got = quantize(xs, q)
    want = [oracles.oracle_quantize(float(x), 3, 5, 1) for x in xs]
    assert np.array_equal(got, want)


def test_out_of_range_raises():
    q = fit_quantizer(2, 5.0, 1.0)
    with pytest.raises(QuantRangeError):
        quantize(np.array([6.01]), q)
    with pytest.raises(QuantRangeError):
        quantize(np.array([-4.01]), q)
    with pytest.raises(ValueError):
        dequantize(np.array([4]), q)
    with pytest.raises(ValueError):
        dequantize(np.array([-1]), q)


def test_bits_validation():
    with pytest.raises(ValueError):
        fit_quantizer(0, 5.0, 1.0)
    with pytest.raises(ValueError):
        fit_quantizer(17, 5.0, 1.0)
    with pytest.raises(ValueError):
        fit_quantizer(2, 1.0, 1.0)


def test_variance_is_squared_constellation_std():
    for m in (1, 2, 6, 16):
        q = fit_quantizer(m, 5.0, 1.0)
        assert q.variance == float(np.std(q.constellation_deq)) ** 2


_edge_values = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 6.0, -4.0,
                                6.0 + EPS_RANGE, -4.0 - EPS_RANGE, np.nextafter(6.0 + 1e-9, 7.0),
                                np.nextafter(-4.0 - 1e-9, -5.0), 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True) | _edge_values,
                       max_size=12),
       bounds=st.sampled_from([(5.0, 1.0), (0.5, 0.25), (3.0, 2.9)]))
def test_range_check_from_the_extremes_equals_the_elementwise_one(values, bounds):
    # quantize decides from the largest and smallest value; NaN is skipped,
    # as the elementwise comparison never flags it
    s, d = bounds
    vals = np.array(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        want = bool(np.any(np.abs(vals - d) > s + EPS_RANGE))
    assert quant._outside_range(vals, s, d) == want
    if want:
        with pytest.raises(QuantRangeError, match="outside"):
            quantize(vals, fit_quantizer(2, s, d))
