import dataclasses
import math

import numpy as np
import pytest

import oracles
from nomalink.link import (DETECTOR_NEURAL, DETECTOR_SIC, LinkScenario,
                           effective_snrs_db, run_link, sample_features,
                           superpose)
from nomalink.modem import SUPERPOSE_LITERAL, tx_symbols
from nomalink.quant import FeatureVector


def test_effective_snrs_frozen_values():
    snr_n, snr_f = effective_snrs_db(LinkScenario(gain_near_db=20, gain_far_db=16))
    assert snr_n == pytest.approx(oracles.EXPECTED_SNR_NEAR_DB, abs=1e-12)
    assert snr_f == pytest.approx(oracles.EXPECTED_SNR_FAR_DB, abs=1e-12)


def test_effective_snrs_match_direct_formula():
    sc = LinkScenario(rho_near=0.2, rho_far=0.8, gain_near_db=20, gain_far_db=16)
    snr_n, snr_f = effective_snrs_db(sc)
    g_n, g_f = 10**2.0, 10**1.6
    assert 10**(snr_n / 10) == pytest.approx(0.2 * g_n, rel=1e-12)
    assert 10**(snr_f / 10) == pytest.approx(0.8 * g_f / (0.2 * g_f + 1), rel=1e-12)


def test_effective_snrs_follow_literal_amplitudes():
    # literal amplitudes are the shares, so the powers are their squares
    sc = LinkScenario(gain_near_db=20, gain_far_db=16, superposition=SUPERPOSE_LITERAL)
    snr_n, snr_f = effective_snrs_db(sc)
    g_n, g_f = 10**2.0, 10**1.6
    assert 10**(snr_n / 10) == pytest.approx(0.09 * g_n, rel=1e-12)
    assert 10**(snr_f / 10) == pytest.approx(0.49 * g_f / (0.09 * g_f + 1), rel=1e-12)


def test_literal_sic_near_ser_matches_its_effective_snr():
    # QPSK at 20/20 dB: far decisions are almost error free, so after
    # cancellation the near SER is QPSK's at the reported effective SNR;
    # cancelling with sqrt(rho) amplitudes instead gives about 0.05
    sc = LinkScenario(gain_near_db=20, gain_far_db=20, superposition=SUPERPOSE_LITERAL)
    n = 20_000
    v_n = sample_features(n, sc.bound_s, sc.bound_d, seed=4, user=0)
    v_f = sample_features(n, sc.bound_s, sc.bound_d, seed=4, user=1)
    rep = run_link(sc, v_n, v_f, detector=DETECTOR_SIC, seed=4)
    q = 0.5 * math.erfc(math.sqrt(10**(rep.snr_eff_near_db / 10) / 2))
    expected = 2 * q - q * q
    assert expected / 2 < rep.ser_near < 2 * expected
    assert rep.ser_far < 1e-3


def test_scenario_validation():
    with pytest.raises(ValueError):
        LinkScenario(rho_near=0.5, rho_far=0.6)
    with pytest.raises(ValueError):
        LinkScenario(rho_near=0.0, rho_far=1.0)
    with pytest.raises(ValueError):
        LinkScenario(bandwidth_hz=0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"superposition": "x"}, "superposition"),
    ({"rho_near": 0.7, "rho_far": 0.3}, "near"),
])
def test_scenario_shares_checked_like_the_config(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LinkScenario(**kwargs)


def test_sample_features_in_bounds_and_deterministic():
    v1 = sample_features(5000, 5.0, 1.0, seed=3, user=0, block=2)
    v2 = sample_features(5000, 5.0, 1.0, seed=3, user=0, block=2)
    assert np.array_equal(v1.values, v2.values)
    assert np.all(np.abs(v1.values - 1.0) < 5.0)
    v3 = sample_features(5000, 5.0, 1.0, seed=3, user=1, block=2)
    assert not np.array_equal(v1.values, v3.values)


def test_superpose_power_conservation(table1_models):
    # unit power per stream plus shares summing to one keep the composite
    # near unit power; the residual is the (small) constellation-mean cross
    # term, checked exactly over the uniform index grid
    near_m, far_m, _ = table1_models
    q = near_m.quantizer
    s_n = tx_symbols(q.constellation_deq, near_m)
    s_f = tx_symbols(q.constellation_deq, far_m)
    grid = superpose(s_n[:, None], s_f[None, :], 0.3, 0.7)
    power = np.mean(np.abs(grid) ** 2)
    cross = 2 * np.sqrt(0.3 * 0.7) * np.real(s_n.mean() * np.conj(s_f.mean()))
    assert power == pytest.approx(1.0 + cross, abs=1e-12)
    assert power == pytest.approx(1.0, abs=0.02)


def test_sic_exact_at_extreme_gain():
    sc = LinkScenario(gain_near_db=300, gain_far_db=300)
    vn = sample_features(2000, 5.0, 1.0, seed=1, user=0)
    vf = sample_features(2000, 5.0, 1.0, seed=1, user=1)
    rep = run_link(sc, vn, vf, detector=DETECTOR_SIC, seed=1)
    assert rep.ser_near == 0.0 and rep.ser_far == 0.0
    assert rep.mse_near <= (1 / 0.3) ** 2 / 4 + 1e-12  # only quantization error left


def test_sic_ser_non_increasing_in_gain():
    vn = sample_features(20_000, 5.0, 1.0, seed=2, user=0)
    vf = sample_features(20_000, 5.0, 1.0, seed=2, user=1)
    sers = []
    for gain in (0.0, 8.0, 16.0, 24.0):
        sc = LinkScenario(gain_near_db=gain + 8, gain_far_db=gain)
        rep = run_link(sc, vn, vf, detector=DETECTOR_SIC, seed=2)
        sers.append(rep.ser_far)
    assert all(a >= b - 0.005 for a, b in zip(sers, sers[1:]))
    assert sers[0] > sers[-1]


def test_neural_detector_runs_and_beats_chance(table1_models):
    near_m, far_m, _ = table1_models
    sc = LinkScenario()
    vn = sample_features(5000, 5.0, 1.0, seed=4, user=0)
    vf = sample_features(5000, 5.0, 1.0, seed=4, user=1)
    rep = run_link(sc, vn, vf, models=(near_m, far_m), detector=DETECTOR_NEURAL, seed=4)
    assert rep.detector == DETECTOR_NEURAL
    assert rep.n_symbols == 5000
    assert rep.ser_near < 0.25 and rep.ser_far < 0.25
    assert rep.mse_near < np.var(vn.values)


def test_neural_requires_models():
    sc = LinkScenario()
    vn = sample_features(10, 5.0, 1.0, seed=0, user=0)
    vf = sample_features(10, 5.0, 1.0, seed=0, user=1)
    with pytest.raises(ValueError):
        run_link(sc, vn, vf, detector=DETECTOR_NEURAL)


def test_neural_rejects_mismatched_quantizer(table1_models):
    near_m, far_m, _ = table1_models
    sc = LinkScenario(m_near=3)
    vn = sample_features(10, 5.0, 1.0, seed=0, user=0)
    vf = sample_features(10, 5.0, 1.0, seed=0, user=1)
    with pytest.raises(ValueError):
        run_link(sc, vn, vf, models=(near_m, far_m), detector=DETECTOR_NEURAL)


def test_length_mismatch_rejected():
    sc = LinkScenario()
    vn = sample_features(10, 5.0, 1.0, seed=0, user=0)
    vf = sample_features(11, 5.0, 1.0, seed=0, user=1)
    with pytest.raises(ValueError):
        run_link(sc, vn, vf, detector=DETECTOR_SIC)


def test_unknown_detector_rejected():
    sc = LinkScenario()
    vn = sample_features(4, 5.0, 1.0, seed=0, user=0)
    with pytest.raises(ValueError):
        run_link(sc, vn, vn, detector="maximum-likelihood")


def test_run_is_deterministic_per_seed_and_block():
    sc = LinkScenario(gain_near_db=10, gain_far_db=4)
    vn = sample_features(500, 5.0, 1.0, seed=5, user=0)
    vf = sample_features(500, 5.0, 1.0, seed=5, user=1)
    r1 = run_link(sc, vn, vf, detector=DETECTOR_SIC, seed=5, block=3)
    r2 = run_link(sc, vn, vf, detector=DETECTOR_SIC, seed=5, block=3)
    r3 = run_link(sc, vn, vf, detector=DETECTOR_SIC, seed=5, block=4)
    assert r1 == r2
    assert (r1.mse_near, r1.mse_far) != (r3.mse_near, r3.mse_far)


def test_rayleigh_kind_accepted():
    sc = LinkScenario(gain_near_db=20, gain_far_db=14)
    vn = sample_features(2000, 5.0, 1.0, seed=6, user=0)
    vf = sample_features(2000, 5.0, 1.0, seed=6, user=1)
    rep = run_link(sc, vn, vf, detector=DETECTOR_SIC, kind="rayleigh", seed=6)
    assert 0.0 <= rep.ser_far <= 1.0
    assert np.isfinite(rep.mse_far)
