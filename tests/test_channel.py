import numpy as np
import pytest

from nomalink.channel import (KIND_AWGN, KIND_RAYLEIGH, ChannelSpec, equalize,
                              realize, transmit)
from nomalink.rng import USER_FAR, USER_NEAR


def test_awgn_coefficient_is_unity():
    real = realize(ChannelSpec(KIND_AWGN, 10.0), USER_NEAR, 0)
    assert real.h == 1.0 + 0.0j
    assert real.h_hat == real.h
    assert real.sigma2 == pytest.approx(0.1)


def test_noise_power_matches_snr():
    # unit-power input at 10 dB: empirical SNR within 0.2 dB over 1e6 symbols
    real = realize(ChannelSpec(KIND_AWGN, 10.0), USER_NEAR, 0)
    x = np.ones(1_000_000, dtype=complex)
    y = transmit(x, real)
    snr_db = 10 * np.log10(1.0 / np.mean(np.abs(y - x) ** 2))
    assert abs(snr_db - 10.0) < 0.2


def test_noise_is_white_and_circular():
    real = realize(ChannelSpec(KIND_AWGN, 0.0), USER_NEAR, 1)
    n = transmit(np.zeros(1_000_000, dtype=complex), real)
    # lag >= 1 autocorrelation below 1% of lag-0 power
    power = np.mean(np.abs(n) ** 2)
    for lag in (1, 2, 5):
        corr = np.mean(n[lag:] * np.conj(n[:-lag]))
        assert abs(corr) / power < 0.01
    # circular symmetry: real/imag equal power, uncorrelated
    assert abs(np.mean(n.real ** 2) - np.mean(n.imag ** 2)) / power < 0.01
    assert abs(np.mean(n.real * n.imag)) / power < 0.01


def test_rayleigh_fading_statistics():
    hs = np.array([realize(ChannelSpec(KIND_RAYLEIGH, 10.0), USER_NEAR, b).h
                   for b in range(20000)])
    assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, abs=0.03)
    assert abs(np.mean(hs)) < 0.02


def test_estimation_error_scale():
    # E|h_hat - h|^2 = delta^2 for delta = 0.15
    spec = ChannelSpec(KIND_RAYLEIGH, 10.0, estimation_error_delta=0.15)
    reals = [realize(spec, USER_FAR, b) for b in range(20000)]
    errs = np.array([r.h_hat - r.h for r in reals])
    assert np.mean(np.abs(errs) ** 2) == pytest.approx(0.0225, rel=0.05)


def test_perfect_csi_when_delta_zero():
    spec = ChannelSpec(KIND_RAYLEIGH, 5.0, estimation_error_delta=0.0)
    real = realize(spec, USER_NEAR, 3)
    assert real.h_hat == real.h


def test_equalize_inverts_known_channel():
    real = realize(ChannelSpec(KIND_RAYLEIGH, 300.0), USER_NEAR, 7)
    x = np.array([1 + 1j, -2 + 0.5j, 0.25j])
    y = transmit(x, real)
    assert np.allclose(equalize(y, real), x, atol=1e-6)


def test_realization_reproducible_per_key():
    spec = ChannelSpec(KIND_RAYLEIGH, 10.0, estimation_error_delta=0.1)
    a = realize(spec, USER_NEAR, 5)
    b = realize(spec, USER_NEAR, 5)
    assert a.h == b.h and a.h_hat == b.h_hat
    assert np.array_equal(transmit(np.ones(8), a), transmit(np.ones(8), b))
    c = realize(spec, USER_NEAR, 6)
    assert c.h != a.h


def test_noise_is_the_complex_view_of_the_normal_draw():
    # the view must equal the old re + 1j*im matmul bit for bit
    spec = ChannelSpec(KIND_RAYLEIGH, 3.0, estimation_error_delta=0.1, seed=9)
    x = np.exp(1j * np.arange(20000))
    y = transmit(x, realize(spec, USER_FAR, 2))
    draw = realize(spec, USER_FAR, 2)._noise_rng.standard_normal((20000, 2))
    n = draw @ np.array([1.0, 1.0j])
    n *= np.sqrt(realize(spec, USER_FAR, 2).sigma2 / 2.0)
    want = realize(spec, USER_FAR, 2).h * x + n
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("laplacian", 10.0)
    with pytest.raises(ValueError):
        ChannelSpec(KIND_AWGN, 10.0, estimation_error_delta=-0.1)
