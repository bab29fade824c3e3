import math

import numpy as np
import pytest

import oracles
from nomalink import rng
from nomalink.channel import realize
from nomalink.config import (SUPERPOSE_LITERAL, SUPERPOSE_SQRT, ExperimentConfig, LinkSection,
                             QuantSection)
from nomalink.link import (DETECTOR_NEURAL, DETECTOR_SIC, build_constellations,
                           effective_snrs_db, open_cell, run_link, sample_features)
from nomalink.modem import tx_symbols
from nomalink.quant import dequantize, fit_quantizer
from nomalink.rng import stream_rng

SIC_BOOKS = build_constellations(ExperimentConfig())


def _cfg(**link) -> ExperimentConfig:
    return ExperimentConfig(link=LinkSection(**link))


def test_effective_snrs_frozen_values():
    snr_n, snr_f = effective_snrs_db(LinkSection(), 20, 16)
    assert snr_n == pytest.approx(oracles.EXPECTED_SNR_NEAR_DB, abs=1e-12)
    assert snr_f == pytest.approx(oracles.EXPECTED_SNR_FAR_DB, abs=1e-12)


def test_effective_snrs_match_direct_formula():
    snr_n, snr_f = effective_snrs_db(LinkSection(rho_near=0.2, rho_far=0.8), 20, 16)
    g_n, g_f = 10**2.0, 10**1.6
    assert 10**(snr_n / 10) == pytest.approx(0.2 * g_n, rel=1e-12)
    assert 10**(snr_f / 10) == pytest.approx(0.8 * g_f / (0.2 * g_f + 1), rel=1e-12)


def test_effective_snrs_follow_literal_amplitudes():
    # literal amplitudes are the shares, so the powers are their squares
    snr_n, snr_f = effective_snrs_db(LinkSection(superposition=SUPERPOSE_LITERAL), 20, 16)
    g_n, g_f = 10**2.0, 10**1.6
    assert 10**(snr_n / 10) == pytest.approx(0.09 * g_n, rel=1e-12)
    assert 10**(snr_f / 10) == pytest.approx(0.49 * g_f / (0.09 * g_f + 1), rel=1e-12)


def test_literal_sic_near_ser_matches_its_effective_snr():
    # QPSK at 20/20 dB: far decisions are almost error free, so after
    # cancellation the near SER is QPSK's at the reported effective SNR;
    # cancelling with sqrt(rho) amplitudes instead gives about 0.05
    books = build_constellations(_cfg(superposition=SUPERPOSE_LITERAL))
    draws = open_cell((20.0, 20.0), 20_000, seed=4).fill()
    rep, = run_link(books, draws, (DETECTOR_SIC,))
    q = 0.5 * math.erfc(math.sqrt(10**(rep.snr_eff_near_db / 10) / 2))
    expected = 2 * q - q * q
    assert expected / 2 < rep.ser_near < 2 * expected
    assert rep.ser_far < 1e-3
    assert (rep.snr_eff_near_db, rep.snr_eff_far_db) == \
        effective_snrs_db(books.link, 20.0, 20.0)


def test_sample_features_in_bounds_and_deterministic():
    d1 = open_cell((0.0, 0.0), 5000, seed=3, block=2).fill()
    d2 = open_cell((0.0, 0.0), 5000, seed=3, block=2).fill()
    v1, v3 = (sample_features(z, 5.0, 1.0) for z in d1.source)
    v2 = sample_features(d2.source[0], 5.0, 1.0)
    assert np.array_equal(v1, v2)
    assert np.all(np.abs(v1 - 1.0) < 5.0)
    assert np.array_equal(v1, 1.0 + 5.0 * np.tanh(d1.source[0]))
    assert not np.array_equal(v1, v3)


def test_superpose_power_conservation(table1_models):
    # unit power per stream plus shares summing to one keep the composite
    # near unit power; the residual is the (small) constellation-mean cross
    # term, checked exactly over the uniform index grid
    near_m, far_m, _ = table1_models
    t_n, t_f = build_constellations(ExperimentConfig(), (near_m, far_m)).tx_neural
    s_n = tx_symbols(near_m.quantizer.constellation_deq, near_m)
    s_f = tx_symbols(near_m.quantizer.constellation_deq, far_m)
    power = np.mean(np.abs(t_n[:, None] + t_f[None, :]) ** 2)
    cross = 2 * np.sqrt(0.3 * 0.7) * np.real(s_n.mean() * np.conj(s_f.mean()))
    assert power == pytest.approx(1.0 + cross, abs=1e-12)
    assert power == pytest.approx(1.0, abs=0.02)


def test_sic_exact_at_extreme_gain():
    rep, = run_link(SIC_BOOKS, open_cell((300.0, 300.0), 2000, seed=1).fill(), (DETECTOR_SIC,))
    assert rep.ser_near == 0.0 and rep.ser_far == 0.0
    assert rep.mse_near <= (1 / 0.3) ** 2 / 4 + 1e-12  # only quantization error left


def test_sic_ser_non_increasing_in_gain():
    # the same features and noise normals at every gain: block 0 of seed 2
    sers = []
    for gain in (0.0, 8.0, 16.0, 24.0):
        draws = open_cell((gain + 8, gain), 20_000, seed=2).fill()
        rep, = run_link(SIC_BOOKS, draws, (DETECTOR_SIC,))
        sers.append(rep.ser_far)
    assert all(a >= b - 0.005 for a, b in zip(sers, sers[1:]))
    assert sers[0] > sers[-1]


def test_neural_detector_runs_and_beats_chance(table1_models):
    near_m, far_m, _ = table1_models
    books = build_constellations(ExperimentConfig(), (near_m, far_m))
    draws = open_cell((14.0, 6.0), 5000, seed=4).fill()
    rep, = run_link(books, draws, (DETECTOR_NEURAL,))
    assert rep.detector == DETECTOR_NEURAL
    assert rep.n_symbols == 5000
    assert rep.ser_near < 0.25 and rep.ser_far < 0.25
    assert rep.mse_near < np.var(sample_features(draws.source[0], 5.0, 1.0))


def test_neural_requires_models():
    draws = open_cell((14.0, 6.0), 10).fill()
    with pytest.raises(ValueError, match="trained model pair"):
        run_link(SIC_BOOKS, draws, (DETECTOR_NEURAL,))


def test_neural_rejects_mismatched_quantizer(table1_models):
    near_m, far_m, _ = table1_models
    with pytest.raises(ValueError, match="model quantizer"):
        build_constellations(ExperimentConfig(quant=QuantSection(bits_near=3)), (near_m, far_m))


@pytest.mark.parametrize("superposition", [SUPERPOSE_SQRT, SUPERPOSE_LITERAL])
def test_alphabets_equal_per_symbol_modulation(table1_models, superposition):
    # entry i is a * tx_symbols(constellation[i]) or a * the QAM point, and
    # gathering and adding them gives a_n * s_n + a_f * s_f bit for bit
    near_m, far_m, _ = table1_models
    cfg = _cfg(superposition=superposition)
    books = build_constellations(cfg, (near_m, far_m))
    assert books.link == cfg.link
    a_n, a_f = cfg.link.amplitudes()
    idx = stream_rng(21).integers(0, 4, size=(2, 500))
    v = books.q_near.constellation_deq[idx]
    for (t_n, t_f), s_n, s_f in (
            (books.tx_neural, tx_symbols(v[0], near_m), tx_symbols(v[1], far_m)),
            (books.tx_sic, books.qam_near.points[idx[0]], books.qam_far.points[idx[1]])):
        got = t_n[idx[0]] + t_f[idx[1]]
        want = a_n * s_n + a_f * s_f
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("other", [dict(bits_near=1), dict(bits_far=1), dict(bound_s=6.0),
                                   dict(bound_d=0.5)])
def test_mismatched_constellations_rejected(table1_models, other):
    # model files come from outside the program: a pair trained for other
    # quantizers than the config's is refused, one field at a time
    with pytest.raises(ValueError, match="model quantizer does not match the config"):
        build_constellations(ExperimentConfig(quant=QuantSection(**other)), table1_models[:2])


def test_unknown_detector_rejected():
    draws = open_cell((14.0, 6.0), 4).fill()
    with pytest.raises(ValueError):
        run_link(SIC_BOOKS, draws, ("maximum-likelihood",))
    with pytest.raises(ValueError):
        run_link(SIC_BOOKS, draws, (DETECTOR_SIC, "maximum-likelihood"))
    with pytest.raises(ValueError):
        run_link(SIC_BOOKS, draws, ())


@pytest.mark.parametrize("superposition", [SUPERPOSE_SQRT, SUPERPOSE_LITERAL])
@pytest.mark.parametrize("kind, delta", [("awgn", 0.0), ("rayleigh", 0.1)])
def test_shared_cell_setup_reports_what_single_detector_runs_do(
        table1_models, superposition, kind, delta):
    # both detectors from one quantization, one realization and one noise
    # draw per user: field for field what one run per detector reports
    near_m, far_m, _ = table1_models
    books = build_constellations(_cfg(superposition=superposition), (near_m, far_m))
    draws = open_cell((12.0, 4.0), 3000, kind, delta, seed=7, block=2).fill()

    def run(*detectors):
        return run_link(books, draws, detectors)

    single = run(DETECTOR_NEURAL) + run(DETECTOR_SIC)
    assert run(DETECTOR_NEURAL, DETECTOR_SIC) == single
    assert run(DETECTOR_SIC, DETECTOR_NEURAL) == single[::-1]


@pytest.mark.parametrize("superposition", [SUPERPOSE_SQRT, SUPERPOSE_LITERAL])
@pytest.mark.parametrize("kind, delta", [("awgn", 0.0), ("rayleigh", 0.1)])
def test_a_receivers_figures_do_not_depend_on_the_other_users_gain(
        table1_models, superposition, kind, delta):
    # each receiver detects from its own channel under a power split fixed
    # per config: with one seed and block, bit for bit the same near figures
    # at any far gain, and the same far figures at any near gain
    near_m, far_m, _ = table1_models
    books = build_constellations(_cfg(superposition=superposition), (near_m, far_m))

    def figures(gains_db, user):
        draws = open_cell(gains_db, 3000, kind, delta, seed=7, block=2).fill()
        return [(rep.detector, getattr(rep, f"mse_{user}"), getattr(rep, f"ser_{user}"))
                for rep in run_link(books, draws, (DETECTOR_NEURAL, DETECTOR_SIC))]

    assert figures((10.0, -8.0), "near") == figures((10.0, 20.0), "near")
    assert figures((-4.0, 6.0), "far") == figures((20.0, 6.0), "far")
    # while each receiver's own gain does move its figures
    assert figures((10.0, -8.0), "far") != figures((10.0, 20.0), "far")
    assert figures((-4.0, 6.0), "near") != figures((20.0, 6.0), "near")


def test_run_is_deterministic_per_seed_and_block():
    def run(block):
        rep, = run_link(SIC_BOOKS, open_cell((10.0, 4.0), 500, seed=5, block=block).fill(),
                        (DETECTOR_SIC,))
        return rep

    r1, r2, r3 = run(3), run(3), run(4)
    assert r1 == r2
    assert (r1.mse_near, r1.mse_far) != (r3.mse_near, r3.mse_far)


def test_rayleigh_kind_accepted():
    draws = open_cell((20.0, 14.0), 2000, "rayleigh", seed=6).fill()
    rep, = run_link(SIC_BOOKS, draws, (DETECTOR_SIC,))
    assert 0.0 <= rep.ser_far <= 1.0
    assert np.isfinite(rep.mse_far)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind, delta", [("awgn", 0.0), ("rayleigh", 0.1)])
def test_cell_draws_are_the_streams_own_draws(kind, delta):
    # fill writes what each stream's standard_normal(shape) returns, into
    # the buffers handed in, which a sweep reuses from cell to cell
    out = (np.full((2, 400, 2), np.nan), np.full((2, 400), np.nan))
    for block in (4, 5):
        draws = open_cell((9.0, -3.0), 400, kind, delta, seed=3, block=block, out=out).fill()
        assert draws.noise is out[0] and draws.source is out[1]
        assert draws.gains_db == (9.0, -3.0)
        for user, gain in ((rng.USER_NEAR, 9.0), (rng.USER_FAR, -3.0)):
            noise = stream_rng(3, user, rng.NOISE, block).standard_normal((400, 2))
            source = stream_rng(3, user, rng.SOURCE, block).standard_normal(400)
            assert np.array_equal(_bits(draws.noise[user]), _bits(noise))
            assert np.array_equal(_bits(draws.source[user]), _bits(source))
            h, h_hat = realize(kind, delta, 3, user, block)
            assert draws.channels[user] == (h, h_hat, 10.0 ** (-gain / 10.0))


def test_draw_buffers_of_another_size_rejected():
    with pytest.raises(ValueError, match="draw buffers"):
        open_cell((14.0, 6.0), 10, out=(np.empty((2, 10, 2)), np.empty((2, 9))))
    with pytest.raises(ValueError, match="draw buffers"):
        open_cell((14.0, 6.0), 10, out=(np.empty((2, 11, 2)), np.empty((2, 10))))


@pytest.mark.parametrize("m", [1, 2, 6, 16])
def test_dequantized_values_gathered_from_the_constellation_equal_dequantize(m):
    q = fit_quantizer(m, 5.0, 1.0)
    idx = stream_rng(22, m).integers(0, 2**m, size=5000)
    assert np.array_equal(_bits(q.constellation_deq[idx]), _bits(dequantize(idx, q)))
