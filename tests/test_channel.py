import math

import numpy as np
import pytest

from nomalink import rng
from nomalink.channel import (KIND_AWGN, KIND_RAYLEIGH, ChannelSpec, coefficients,
                              equalize, realize, transmit)
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64, np.complex128])
def test_transmit_equals_h_x_plus_n_for_every_input_dtype(dtype):
    # y = h x; y += n is h x + n in complex128 whatever the input precision
    spec = ChannelSpec(KIND_RAYLEIGH, 3.0, estimation_error_delta=0.1, seed=9)
    z = 3.0 * np.exp(1j * np.arange(1000))
    x = (z if np.issubdtype(dtype, np.complexfloating) else z.real).astype(dtype)
    x = np.stack([x, -x])
    y = transmit(x, realize(spec, USER_NEAR, 1))
    real = realize(spec, USER_NEAR, 1)
    n = real._noise_rng.standard_normal((1000, 2)).view(complex)[..., 0]
    n *= np.sqrt(real.sigma2 / 2.0)
    want = real.h * x.astype(complex) + n
    assert y.dtype == np.complex128
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))


def test_transmit_given_its_normals_equals_its_own_draw():
    # a sweep draws a cell's noise normals ahead, into a reused buffer
    spec = ChannelSpec(KIND_RAYLEIGH, 3.0, estimation_error_delta=0.1, seed=9)
    x = np.stack([np.exp(1j * np.arange(700)), np.linspace(-1, 1, 700) + 0.5j])
    normals = np.empty((700, 2))
    realize(spec, USER_FAR, 3)._noise_rng.standard_normal(out=normals)
    kept = normals.copy()
    y = transmit(x, realize(spec, USER_FAR, 3), normals)
    want = transmit(x, realize(spec, USER_FAR, 3))
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(normals, kept)  # left as drawn


@pytest.mark.parametrize("normals", [np.zeros((699, 2)), np.zeros((700, 3)), np.zeros(1400),
                                     np.zeros((700, 2), dtype=np.float32)])
def test_transmit_rejects_normals_of_another_shape_or_type(normals):
    with pytest.raises(ValueError, match="noise normals"):
        transmit(np.ones(700), realize(ChannelSpec(), USER_NEAR, 0), normals)


def test_rows_of_one_transmit_share_its_noise_draw():
    # a cell's detectors stack their transmit signals: each row must get
    # exactly what a call of its own on a fresh realization gives
    spec = ChannelSpec(KIND_RAYLEIGH, 3.0, estimation_error_delta=0.1, seed=9)
    x = np.stack([np.exp(1j * np.arange(500)), np.linspace(-1, 1, 500) + 0.5j])
    y = transmit(x, realize(spec, USER_NEAR, 4))
    for row, x_row in zip(y, x):
        want = transmit(x_row, realize(spec, USER_NEAR, 4))
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def test_coefficients_take_fading_then_error_from_one_stream():
    # the training order: both pairs from the user's one TRAIN_FADING stream
    g = rng.stream_rng(5, 1, rng.TRAIN_FADING)
    h, h_hat = coefficients(ChannelSpec(KIND_RAYLEIGH, estimation_error_delta=0.3),
                            lambda p: g.standard_normal((1, len(p), 2)), 1)
    z = rng.stream_rng(5, 1, rng.TRAIN_FADING).standard_normal(4)
    assert h.shape == h_hat.shape == (1,)
    assert h[0] == complex(z[0], z[1]) / math.sqrt(2.0)
    assert h_hat[0] == h[0] + 0.3 * complex(z[2], z[3]) / math.sqrt(2.0)


def _scalar_coefficients(spec, gens):
    """One block drawn and scaled as Python complex numbers, the reference
    for the batched arrays; gens maps each purpose to its generator."""
    h = 1.0 + 0.0j
    if spec.kind == KIND_RAYLEIGH:
        h = complex(*gens[rng.FADING].standard_normal(2)) / math.sqrt(2.0)
    if spec.estimation_error_delta > 0:
        err = complex(*gens[rng.EST_ERROR].standard_normal(2))
        return h, h + spec.estimation_error_delta * err / math.sqrt(2.0)
    return h, h


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("kind,delta", [(KIND_AWGN, 0.0), (KIND_AWGN, 0.2),
                                        (KIND_RAYLEIGH, 0.0), (KIND_RAYLEIGH, 0.1)])
def test_batched_coefficients_equal_scalar_draws(kind, delta, shared):
    # shared: one generator serves both draws, interleaved per block as in
    # training; otherwise each purpose has its own generator, as in realize
    spec = ChannelSpec(kind, estimation_error_delta=delta)
    n = 37

    def generators():
        if shared:
            g = rng.stream_rng(2, 1, rng.TRAIN_FADING)
            return {rng.FADING: g, rng.EST_ERROR: g}
        return {p: rng.stream_rng(2, 1, p, 9) for p in (rng.FADING, rng.EST_ERROR)}

    def stream_of(gens, n):
        if shared:
            return lambda p: gens[rng.FADING].standard_normal((n, len(p), 2))
        return lambda p: np.stack([gens[q].standard_normal((n, 2)) for q in p], axis=1)

    gens = generators()
    h, h_hat = coefficients(spec, stream_of(gens, n), n)
    gens = generators()
    ref = [_scalar_coefficients(spec, gens) for _ in range(n)]
    gens = generators()
    one_by_one = [coefficients(spec, stream_of(gens, 1), 1) for _ in range(n)]
    assert h.shape == h_hat.shape == (n,)
    for got, want in ((h, [r[0] for r in ref]), (h_hat, [r[1] for r in ref]),
                      (h, [c[0][0] for c in one_by_one]),
                      (h_hat, [c[1][0] for c in one_by_one])):
        assert np.array_equal(_bits(got), _bits(want))
    # the per-step factor training takes from Python scalars
    assert all(complex(a) / complex(b) == r[0] / r[1] for a, b, r in zip(h, h_hat, ref))


@pytest.mark.parametrize("kind,delta,opened", [
    (KIND_AWGN, 0.0, [rng.NOISE]),
    (KIND_AWGN, 0.2, [rng.EST_ERROR, rng.NOISE]),
    (KIND_RAYLEIGH, 0.0, [rng.FADING, rng.NOISE]),
    (KIND_RAYLEIGH, 0.2, [rng.FADING, rng.EST_ERROR, rng.NOISE]),
])
def test_realize_opens_only_the_streams_it_draws(monkeypatch, kind, delta, opened):
    purposes = []
    stream_rng = rng.stream_rng
    monkeypatch.setattr(rng, "stream_rng",
                        lambda *key: purposes.append(key[2]) or stream_rng(*key))
    realize(ChannelSpec(kind, estimation_error_delta=delta), USER_FAR, 3)
    assert purposes == opened


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("laplacian", 10.0)
    with pytest.raises(ValueError):
        ChannelSpec(KIND_AWGN, 10.0, estimation_error_delta=-0.1)
