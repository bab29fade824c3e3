"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each criterion is a single test so the -v report gives one pass/fail
line per guarantee.  Stated runtime budgets are asserted at the end of
each test body.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from nomalink.cli import main
from nomalink.config import ExperimentConfig, LinkSection, RegionSection
from nomalink.link import (DETECTOR_NEURAL, DETECTOR_SIC, build_constellations,
                           effective_snrs_db, open_cell, run_link)
from nomalink.modem import (composite_peak, count_macs, demodulate,
                            train_modem, tx_symbols)
from nomalink.qam import make_qam, sic_detect, sic_macs_per_symbol
from nomalink.quant import dequantize, fit_quantizer, quantize
from nomalink.regions import (default_rate_grid, noma_power_region, noma_rate_region,
                              oma_power_region, oma_rate_region)
from nomalink.rng import stream_rng
from nomalink.srate import (TRUE_IMAGE_CURVE, TRUE_TEXT_CURVE, fit_logistic,
                            synthetic_accuracy_samples)


def _nearest(values, constellation):
    return np.argmin(np.abs(values[:, None] - constellation[None, :]), axis=1)


def test_criterion_01_zero_in_every_constellation():
    t0 = time.monotonic()
    s_grid = np.linspace(0.5, 50.0, 20)
    frac_grid = np.linspace(0.05, 0.95, 20)
    for m in range(1, 9):
        for s in s_grid:
            for frac in frac_grid:
                q = fit_quantizer(m, float(s), float(frac * s))
                assert 0.0 in q.constellation_deq, (m, s, frac * s)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_round_trip_error_bound():
    t0 = time.monotonic()
    q = fit_quantizer(2, 5.0, 1.0)
    g = stream_rng(42)
    x = g.uniform(q.bound_d - q.bound_s, q.bound_d + q.bound_s, size=1_000_000)
    err = np.abs(dequantize(quantize(x, q), q) - x)
    violations = int(np.sum(err > 1 / q.scale_fs))
    assert violations == 0
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_closed_form_effective_snrs():
    t0 = time.monotonic()
    snr_n, snr_f = effective_snrs_db(LinkSection(0.3, 0.7), 20, 16)
    assert abs(snr_n - 14.77) <= 0.01
    assert abs(snr_f - 3.33) <= 0.01
    assert snr_n == pytest.approx(oracles.EXPECTED_SNR_NEAR_DB, abs=1e-12)
    assert snr_f == pytest.approx(oracles.EXPECTED_SNR_FAR_DB, abs=1e-12)
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_noiseless_detection_exactness():
    # trains its own pair so the stated budget covers training as well
    t0 = time.monotonic()
    q = fit_quantizer(2, 5.0, 1.0)
    near_m, far_m, _ = train_modem(ExperimentConfig(), 0)

    pairs = oracles.enumerate_index_pairs(2, 2)
    reps = oracles.representative_features(2, 5.0, 1.0)
    idx_n = np.array([p[0] for p in pairs])
    idx_f = np.array([p[1] for p in pairs])
    x_n = np.array([reps[i] for i in idx_n])
    x_f = np.array([reps[j] for j in idx_f])
    assert np.array_equal(quantize(x_n, q), idx_n)  # reps hit their index
    assert np.array_equal(quantize(x_f, q), idx_f)

    amp_n, amp_f = LinkSection().amplitudes()
    x = amp_n * tx_symbols(dequantize(idx_n, q), near_m) \
        + amp_f * tx_symbols(dequantize(idx_f, q), far_m)
    out_n = demodulate(x, near_m)  # zero noise, unit channel
    out_f = demodulate(x, far_m)
    assert np.array_equal(_nearest(out_n[:, 0], q.constellation_deq), idx_n)
    assert np.array_equal(_nearest(out_n[:, 1], q.constellation_deq), idx_f)
    assert np.array_equal(_nearest(out_f[:, 0], q.constellation_deq), idx_f)

    qam = make_qam(2)
    y = amp_n * qam.points[idx_n] + amp_f * qam.points[idx_f]
    got_n, got_f = sic_detect(y, qam, qam, amp_n, amp_f)
    assert np.array_equal(got_n, idx_n)
    assert np.array_equal(got_f, idx_f)
    assert time.monotonic() - t0 < 300.0


def test_criterion_05_gradients_match_finite_differences():
    from nomalink.modem import _init_model, pair_backward, pair_forward, stack_hidden
    t0 = time.monotonic()
    q = fit_quantizer(2, 5.0, 1.0)
    shapes = [(4,), (4, 3), (6, 5), (5,), (3, 3)]
    worst = 0.0
    for cfg_i in range(100):
        g = stream_rng(1000 + cfg_i)
        hidden = shapes[cfg_i % len(shapes)]
        near = _init_model("near", 2, hidden, q, stream_rng(cfg_i, 0, 4))
        far = _init_model("far", 1, hidden, q, stream_rng(cfg_i, 1, 4))
        stack = stack_hidden(near, far)
        b = int(g.integers(2, 7))
        vn = q.constellation_deq[g.integers(0, 4, size=b)]
        vf = q.constellation_deq[g.integers(0, 4, size=b)]
        rho_n = float(g.uniform(0.1, 0.5))
        amp_n, amp_f = LinkSection(rho_n, 1.0 - rho_n).amplitudes()
        chans = []
        for _ in range(2):
            h = complex(g.normal(1.0, 0.2), g.normal(0.0, 0.2))
            h_hat = h + complex(g.normal(0, 0.05), g.normal(0, 0.05))
            noise = 0.05 * (g.standard_normal(b) + 1j * g.standard_normal(b))
            chans.append((h, h_hat, noise))

        def near_loss():
            return pair_forward(stack, near, far, vn, vf, amp_n, amp_f, *chans)[0].near_scaled

        def far_loss():
            return pair_forward(stack, near, far, vn, vf, amp_n, amp_f, *chans)[0].far_scaled

        _, cache = pair_forward(stack, near, far, vn, vf, amp_n, amp_f, *chans)
        (gW_h, gb_h), (gw_n, gb_n, g_out_n), (gw_f, gb_f, g_out_f) = \
            pair_backward(stack, near, far, cache)

        checks = [(gw_n, near.mod_w, near_loss), (gb_n, near.mod_b, near_loss),
                  (gw_f, far.mod_w, far_loss), (gb_f, far.mod_b, far_loss)]
        for k, (model, (gW_out, gb_out), loss) in enumerate(
                ((near, g_out_n, near_loss), (far, g_out_f, far_loss))):
            # slice k of each stacked hidden layer's gradient, then the
            # user's own output layer: every weight and bias of its network
            gW = [W[k] for W in gW_h] + [gW_out]
            gb = [b[k, 0] for b in gb_h] + [gb_out]
            assert len(gW) == len(gb) == len(model.demod.W) == len(hidden) + 1
            for i in range(len(gW)):
                checks += [(gW[i], model.demod.W[i], loss), (gb[i], model.demod.b[i], loss)]
        for analytic, param, loss in checks:
            fd = oracles.fd_gradient(loss, param)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
    assert time.monotonic() - t0 < 30.0


def test_criterion_06_low_snr_advantage_and_cliff(table1_models):
    t0 = time.monotonic()
    near_m, far_m, _ = table1_models
    n = 100_000
    books = build_constellations(ExperimentConfig(), (near_m, far_m))

    # far-user feature MSE: trained pair vs SIC baseline on [-8, 0] dB
    for k, snr_f in enumerate(np.arange(-8.0, 0.0 + 1.0, 2.0)):
        draws = open_cell((snr_f + 8.0, snr_f), n, seed=0, block=k).fill()
        neural, sic = run_link(books, draws, (DETECTOR_NEURAL, DETECTOR_SIC))
        assert neural.mse_far <= sic.mse_far, (
            f"far SNR {snr_f} dB: neural MSE {neural.mse_far:.4f} "
            f"> SIC MSE {sic.mse_far:.4f}")

    # SIC SER knee: > 1e-1 somewhere, < 1e-3 at least 6 dB above it
    axis = np.arange(-8.0, 20.0 + 1.0, 2.0)
    ser_near, ser_far = [], []
    for k, snr_f in enumerate(axis):
        draws = open_cell((snr_f + 8.0, snr_f), n, seed=0, block=100 + k).fill()
        rep, = run_link(books, draws, (DETECTOR_SIC,))
        ser_near.append(rep.ser_near)
        ser_far.append(rep.ser_far)

    def has_knee(ser):
        ser = np.asarray(ser)
        lows = axis[ser > 1e-1]
        highs = axis[ser < 1e-3]
        return any(h - l >= 6.0 for l in lows for h in highs)

    assert has_knee(ser_near) or has_knee(ser_far), (
        f"no >=6 dB knee: near {ser_near} far {ser_far}")
    # far user's cliff, qualitatively: orders of magnitude across the window
    assert ser_far[-1] < 5e-3
    assert ser_far[0] / max(ser_far[-1], 1e-12) > 100
    assert time.monotonic() - t0 < 600.0


def test_criterion_07_equal_power_breakdown(equal_power_models):
    t0 = time.monotonic()
    q = fit_quantizer(2, 5.0, 1.0)
    pairs = oracles.enumerate_index_pairs(2, 2)
    idx_n = np.array([p[0] for p in pairs])
    idx_f = np.array([p[1] for p in pairs])

    qam = make_qam(2)
    y = np.sqrt(0.5) * (qam.points[idx_n] + qam.points[idx_f])
    got_n, got_f = sic_detect(y, qam, qam, *LinkSection(0.5, 0.5).amplitudes())
    ser_sic = np.mean((got_n != idx_n) | (got_f != idx_f))
    assert ser_sic >= 0.25, f"equal-power SIC SER {ser_sic}"

    near_m, far_m, _ = equal_power_models
    amp = np.sqrt(0.5)
    x = amp * tx_symbols(dequantize(idx_n, q), near_m) \
        + amp * tx_symbols(dequantize(idx_f, q), far_m)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-6, "learned composite constellation not injective"
    out_n = demodulate(x, near_m)
    out_f = demodulate(x, far_m)
    errs = (np.sum(_nearest(out_n[:, 0], q.constellation_deq) != idx_n)
            + np.sum(_nearest(out_f[:, 0], q.constellation_deq) != idx_f))
    assert errs == 0, f"{errs} noiseless errors despite injective constellation"
    assert time.monotonic() - t0 < 600.0


def test_criterion_08_logistic_fit_recovery():
    t0 = time.monotonic()
    for kind, truth in (("text", TRUE_TEXT_CURVE), ("image", TRUE_IMAGE_CURVE)):
        res = fit_logistic(synthetic_accuracy_samples(kind))
        for got, want in ((res.model.a1, truth.a1), (res.model.a2, truth.a2),
                          (res.model.c1, truth.c1), (res.model.c2, truth.c2)):
            assert abs(got - want) <= 0.01 * abs(want), (kind, got, want)
        noisy = fit_logistic(synthetic_accuracy_samples(kind, noise=0.01, seed=3))
        assert noisy.residual_rms <= 0.02
    assert time.monotonic() - t0 < 10.0


# the shipped region section (gains 20 and 16 dB, 12 Hz, 128 text symbols
# per word, image compression 0.33, requirements 0.6 and 0.7, a 2,048-point
# slice grid and 33 rate points) at a unit power ceiling
SHIPPED_REGION = RegionSection(p_max_watts=1.0)


def test_criterion_09_rate_region_containment():
    t0 = time.monotonic()
    r = SHIPPED_REGION
    grid = default_rate_grid(r, TRUE_TEXT_CURVE)
    noma = noma_rate_region(r, TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE, grid)
    oma = oma_rate_region(r, TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE, grid)

    pref_n, pref_f = 12.0 / 128.0, 12.0 / 0.33  # text W / k, image W / compression
    ref_noma = oracles.dense_noma_rate(TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE,
                                       100.0, 10**1.6, pref_n, pref_f, 0.7, grid)
    ref_oma = oracles.dense_oma_rate(TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE,
                                     100.0, 10**1.6, 12.0, pref_n, pref_f,
                                     0.6, 0.7, grid, 8 * r.grid_points)

    for got, ref in ((np.array([p.y for p in noma.points]), ref_noma),
                     (np.array([p.y for p in oma.points]), ref_oma)):
        mask = ~np.isnan(ref)
        assert mask.any()
        assert not np.isnan(got[mask]).any()
        rel = np.abs(got[mask] - ref[mask]) / np.abs(ref[mask])
        assert rel.max() <= 0.005, f"oracle disagreement {rel.max():.3e}"

    for pn, po in zip(noma.points, oma.points):  # containment, production grid
        if po.feasible:
            assert pn.feasible and pn.y >= po.y - 1e-9
    m = ~np.isnan(ref_oma)  # containment on the 8x oracle grids
    assert np.all(ref_noma[m] >= ref_oma[m] - 1e-9)
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_power_region_ordering():
    t0 = time.monotonic()
    r = SHIPPED_REGION
    cases = {c.name: c for c in r.cases}
    assert [(c.xi_req_far, c.rate_req_near, c.rate_req_far) for c in cases.values()] == [
        (0.75, 0.075, 5.0), (0.68, 0.069, 4.13), (0.65, 0.063, 3.13)]
    levels = np.linspace(0.6, 0.84, 13)

    noma = noma_power_region(r, cases["high"], TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE, levels)
    oma = oma_power_region(r, cases["high"], TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE, levels)
    assert noma.points[0].feasible and oma.points[0].feasible
    assert noma.points[0].y <= oma.points[0].y * (1 + 1e-6), (
        f"NOMA {noma.points[0].y:.6f} > OMA {oma.points[0].y:.6f} at base")

    for curve in (noma, oma):  # monotone along the requirement sweep
        ys = np.array([p.y for p in curve.points])
        ok = ~np.isnan(ys)
        assert np.all(np.diff(ys[ok]) >= -1e-9), curve.scheme

    base_level = np.array([0.6])  # monotone across requirement cases
    for region in (noma_power_region, oma_power_region):
        y = {name: region(r, case, TRUE_TEXT_CURVE, TRUE_IMAGE_CURVE,
                          base_level).points[0].y for name, case in cases.items()}
        assert y["low"] <= y["med"] + 1e-9 <= y["high"] + 2e-9, y
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_byte_identical_reruns(tmp_path):
    t0 = time.monotonic()
    cfg = {"seed": 0,
           "train": {"epochs": 300, "dataset_size": 16},
           "sweep": {"grid_step_db": 7.0, "n_symbols": 2000}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        assert main(["train-modem", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("modem_near.json", "modem_far.json", "train_trace.csv",
                 "sweep.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    assert time.monotonic() - t0 < 600.0


def test_criterion_12_mac_accounting(table1_models):
    t0 = time.monotonic()
    near_m, far_m, _ = table1_models
    assert count_macs(near_m) == 2178
    assert count_macs(far_m) == 2146
    assert sic_macs_per_symbol(2, 2) == 32
    for length in (1, 16, 64, 256, 1024, 65537):
        assert length * count_macs(near_m) == length * 2178
        assert length * count_macs(far_m) == length * 2146
    # exact linearity: equal increments for equal length steps
    totals = [L * count_macs(near_m) for L in range(1, 6)]
    assert len(set(np.diff(totals))) == 1
    assert time.monotonic() - t0 < 1.0
