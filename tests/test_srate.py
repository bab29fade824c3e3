import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomalink import srate
from nomalink.srate import (AccuracyModel, FIT_MAX_ITERS,
                            FIT_STALL_ITERS, FitResult, SourceProfile, TRUE_IMAGE_CURVE,
                            TRUE_TEXT_CURVE,
                            fit_logistic, gamma_required, image_profile,
                            load_accuracy_csv, rate_prefactor,
                            synthetic_accuracy_samples, text_profile,
                            write_accuracy_csv, xi_eval)


def test_xi_eval_limits():
    m = AccuracyModel(0.1, 0.9, 0.5, -1.5)
    assert xi_eval(m, 0.0) == pytest.approx(0.1 + 0.8 / (1 + math.exp(1.5)))
    assert xi_eval(m, 1e9) == pytest.approx(0.9, abs=1e-12)
    mid = xi_eval(m, 3.0)  # c1*gamma + c2 = 0 -> midpoint
    assert mid == pytest.approx(0.5, abs=1e-12)


def test_gamma_required_closed_form():
    # at accuracy 3/4 of the way up, the logit is ln 3
    m = AccuracyModel(0.0, 1.0, 2.0, -1.0)
    target = 0.75
    gamma = gamma_required(m, target)
    assert gamma == pytest.approx((math.log(3.0) + 1.0) / 2.0, rel=1e-12)
    assert xi_eval(m, gamma) == pytest.approx(target, abs=1e-12)


@settings(max_examples=100)
@given(frac=st.floats(min_value=0.01, max_value=0.99))
def test_gamma_required_round_trip(frac):
    m = TRUE_TEXT_CURVE
    target = m.a1 + frac * (m.a2 - m.a1)
    assert xi_eval(m, gamma_required(m, target)) == pytest.approx(target, abs=1e-9)


def test_gamma_required_just_below_ceiling_is_finite():
    # here (target - a1) / (a2 - a1) rounds to exactly 1
    m = AccuracyModel(np.float64(0.06), np.float64(0.75), 2.0, -1.0)
    target = math.nextafter(m.a2, m.a1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = gamma_required(m, target)
    assert math.isfinite(gamma)
    assert gamma > gamma_required(m, 0.7)


def test_gamma_required_guards():
    m = AccuracyModel(0.1, 0.9, 0.5, -1.5)
    assert gamma_required(m, 0.05) == -math.inf
    assert gamma_required(m, 0.1) == -math.inf
    assert gamma_required(m, 0.9) == math.inf
    assert gamma_required(m, 0.99) == math.inf
    assert math.isfinite(gamma_required(m, 0.5))


def test_rate_formulas():
    text = text_profile(k_symbols=128.0)
    image = image_profile(compression=0.33)
    assert rate_prefactor(text, 12.0) == pytest.approx(12.0 / 128.0)
    assert rate_prefactor(image, 12.0) == pytest.approx(12.0 / 0.33)


def test_profile_validation():
    with pytest.raises(ValueError):
        SourceProfile("audio")
    with pytest.raises(ValueError):
        SourceProfile("text", k_symbols=None)
    with pytest.raises(ValueError):
        SourceProfile("text", k_symbols=128.0, compression=0.5)
    with pytest.raises(ValueError):
        SourceProfile("image", compression=1.5)
    with pytest.raises(ValueError):
        text_profile(k_symbols=-1.0)


def test_accuracy_model_validation():
    with pytest.raises(ValueError):
        AccuracyModel(0.9, 0.1, 1.0, 0.0)


def test_fit_recovers_clean_curves():
    for kind, truth in (("text", TRUE_TEXT_CURVE), ("image", TRUE_IMAGE_CURVE)):
        res = fit_logistic(synthetic_accuracy_samples(kind))
        assert res.warning is None
        assert res.residual_rms < 1e-5
        assert res.model.a1 == pytest.approx(truth.a1, abs=1e-4)
        assert res.model.a2 == pytest.approx(truth.a2, abs=1e-4)
        assert res.model.c1 == pytest.approx(truth.c1, rel=1e-3)
        assert res.model.c2 == pytest.approx(truth.c2, rel=1e-3)


def test_fit_recovers_clean_curves_to_rounding():
    for kind, truth in (("text", TRUE_TEXT_CURVE), ("image", TRUE_IMAGE_CURVE)):
        res = fit_logistic(synthetic_accuracy_samples(kind))
        assert res.iterations < FIT_MAX_ITERS
        for p in ("a1", "a2", "c1", "c2"):
            assert abs(getattr(res.model, p) - getattr(truth, p)) <= 1e-9, (kind, p)


def _sum_of_squares(p, gamma, acc):
    a1, a2, c1, c2 = p
    return float(np.sum((a1 + (a2 - a1) / (1.0 + np.exp(-(c1 * gamma + c2))) - acc) ** 2))


@pytest.mark.parametrize("kind", ["text", "image"])
@pytest.mark.parametrize("seed", range(6))
def test_noisy_fit_is_a_stationary_minimum(kind, seed):
    samples = synthetic_accuracy_samples(kind, noise=0.01, seed=seed)
    gamma, acc = samples[:, 0], samples[:, 1]
    res = fit_logistic(samples)
    m = res.model
    p = np.array([m.a1, m.a2, m.c1, m.c2])
    # gradient of the sum of squares, column by column relative to the
    # sizes of the residual and of that column of the Jacobian
    sig = 1.0 / (1.0 + np.exp(-(m.c1 * gamma + m.c2)))
    slope = (m.a2 - m.a1) * sig * (1.0 - sig)
    jac = np.stack([1.0 - sig, sig, slope * gamma, slope], axis=1)
    resid = m.a1 + (m.a2 - m.a1) * sig - acc
    rel_grad = np.abs(jac.T @ resid) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(resid))
    assert np.all(rel_grad <= 1e-8), rel_grad
    f = _sum_of_squares(p, gamma, acc)
    assert res.residual_rms == pytest.approx(math.sqrt(f / len(acc)), rel=1e-12)
    for i in range(4):
        for h in (1e-6, -1e-6):
            q = p.copy()
            q[i] += h * max(abs(q[i]), 1.0)
            assert _sum_of_squares(q, gamma, acc) >= f, (i, h)


def test_fit_of_a_step_converges():
    # every sample ends up on a saturated flank of an ever steeper curve,
    # where the damped normal equations turn singular in floating point
    gamma = synthetic_accuracy_samples("text", n=12)[:, 0]
    for lo, hi in ((0.0, 1.0), (0.2, 0.7)):
        acc = np.r_[np.full(6, lo), np.full(6, hi)]
        res = fit_logistic(np.stack([gamma, acc], axis=1))
        assert res.warning is None
        assert res.iterations < FIT_MAX_ITERS
        assert res.residual_rms < 1e-9
        assert res.model.a1 == pytest.approx(lo, abs=1e-9)
        assert res.model.a2 == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("kind", ["text", "image"])
def test_shipped_sample_fits_converge_within_the_stall_window(kind):
    # so the stall stop can not end them: their parameters and iteration
    # counts are those of the fit without it
    samples = [synthetic_accuracy_samples(kind)]
    samples += [synthetic_accuracy_samples(kind, noise=0.01, seed=s) for s in range(50)]
    for sample in samples:
        res = fit_logistic(sample)
        assert res.warning is None
        assert res.iterations < FIT_STALL_ITERS


def test_fit_of_an_in_range_outlier_stops_at_the_first_stalled_window():
    # one row at 100 dB with accuracy 0.1: the fit creeps along a flat
    # valley (about 2.5e-9 relative per 1,000 iterations) and without the
    # stall stop runs into FIT_MAX_ITERS
    samples = np.vstack([synthetic_accuracy_samples("text"), [[1e10, 0.1]]])
    res = fit_logistic(samples)
    assert res.iterations == FIT_STALL_ITERS <= FIT_MAX_ITERS // 5
    assert res.warning == "non-increasing fit (c1 <= 0)"


def test_fit_that_creeps_then_drops_is_not_stopped():
    # rows at -100, -10, 0, 5, 10 and 100 dB: about 1e-10 relative per
    # 100 iterations for 750 iterations, then the cost falls twentyfold
    gamma = 10.0 ** (np.array([-100.0, -10.0, 0.0, 5.0, 10.0, 100.0]) / 10.0)
    acc = np.array([0.1, 0.2, 0.5, 0.7, 0.8, 0.95])
    res = fit_logistic(np.stack([gamma, acc], axis=1))
    assert FIT_STALL_ITERS < res.iterations < FIT_MAX_ITERS
    assert res.residual_rms < 0.06


def test_a_stalled_fit_says_so(monkeypatch):
    monkeypatch.setattr(srate, "FIT_STALL_ITERS", 10)
    monkeypatch.setattr(srate, "FIT_STALL_TOL", 1.0)  # every window stalls
    res = fit_logistic(synthetic_accuracy_samples("text"))
    assert res.iterations == 10
    assert res.residual_rms < srate.FIT_RESIDUAL_WARN
    assert res.warning.startswith("stalled: the last 10 iterations")


def test_fit_tolerates_one_percent_noise():
    res = fit_logistic(synthetic_accuracy_samples("text", noise=0.01, seed=1))
    assert res.residual_rms <= 0.02
    assert res.model.a2 == pytest.approx(TRUE_TEXT_CURVE.a2, abs=0.05)


def test_fit_is_deterministic():
    samples = synthetic_accuracy_samples("image", noise=0.01, seed=2)
    r1 = fit_logistic(samples)
    r2 = fit_logistic(samples)
    assert r1 == r2


def test_fit_flags_degenerate_input():
    samples = np.stack([np.linspace(0.1, 10, 8), np.full(8, 0.5)], axis=1)
    res = fit_logistic(samples)
    assert res.warning is not None and "degenerate" in res.warning
    assert res.residual_rms == 0.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_logistic([(1.0, 0.5), (2.0, 0.6)])  # too few
    bad = np.stack([np.linspace(0.1, 10, 8), np.linspace(0.0, 1.2, 8)], axis=1)
    with pytest.raises(ValueError):
        fit_logistic(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_fit_rejects_non_finite_samples(bad, column):
    samples = synthetic_accuracy_samples("text", n=8)
    samples[3, column] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_logistic(samples)


def test_csv_round_trip(tmp_path):
    samples = synthetic_accuracy_samples("text", n=20)
    path = tmp_path / "curve.csv"
    write_accuracy_csv(path, samples)
    back = load_accuracy_csv(path)
    assert back.shape == samples.shape
    assert np.allclose(back[:, 0], samples[:, 0], rtol=1e-9)
    assert np.allclose(back[:, 1], samples[:, 1], rtol=1e-9)


def test_csv_errors_name_the_file(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wrong,header\n1,0.5\n")
    with pytest.raises(ValueError, match="bad.csv"):
        load_accuracy_csv(p)
    p2 = tmp_path / "empty.csv"
    p2.write_text("")
    with pytest.raises(ValueError, match="empty.csv"):
        load_accuracy_csv(p2)
    p3 = tmp_path / "headeronly.csv"
    p3.write_text("gamma_db,accuracy\n")
    with pytest.raises(ValueError, match="headeronly.csv"):
        load_accuracy_csv(p3)


def test_csv_malformed_rows_name_file_and_line(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("# note\ngamma_db,accuracy\n0,0.5\n10\n")
    with pytest.raises(ValueError, match=r"short\.csv:4: expected two columns"):
        load_accuracy_csv(p)
    p2 = tmp_path / "word.csv"
    p2.write_text("gamma_db,accuracy\n0,0.5\n10,high\n")
    with pytest.raises(ValueError, match=r"word\.csv:3:"):
        load_accuracy_csv(p2)


def test_csv_non_finite_values_load_and_fail_the_fit(tmp_path):
    # the loader passes nan/inf through as numbers; the fit rejects them
    for row in ("0,nan", "nan,0.5", "inf,0.5", "0,inf"):
        p = tmp_path / "nonfinite.csv"
        p.write_text("gamma_db,accuracy\n-10,0.2\n0,0.5\n5,0.7\n10,0.8\n" + row + "\n")
        back = load_accuracy_csv(p)
        assert not np.all(np.isfinite(back))
        with pytest.raises(ValueError, match="finite"):
            fit_logistic(back)


def test_csv_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_text("# provenance note\ngamma_db,accuracy\n0,0.5\n\n10,0.8\n")
    back = load_accuracy_csv(p)
    assert back.shape == (2, 2)
    assert back[0, 0] == pytest.approx(1.0)
    assert back[1, 0] == pytest.approx(10.0)


def test_synthetic_samples_shape_and_range():
    s = synthetic_accuracy_samples("image", n=17)
    assert s.shape == (17, 2)
    assert np.all(s[:, 0] > 0)
    assert np.all((s[:, 1] >= 0) & (s[:, 1] <= 1))
    with pytest.raises(ValueError):
        synthetic_accuracy_samples("video")
