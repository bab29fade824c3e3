import math

import numpy as np
import pytest

from nomalink import rng
from nomalink.channel import KIND_AWGN, KIND_RAYLEIGH, coefficients, equalize, realize, transmit
from nomalink.rng import USER_FAR, USER_NEAR


def _normals(user, block, n, seed=0):
    """The first n (re, im) pairs of the user's noise stream of block."""
    return rng.stream_rng(seed, user, rng.NOISE, block).standard_normal((n, 2))


def _send(x, h, snr_db, user, block, seed=0):
    """transmit x over h at snr_db with the user's noise normals of block."""
    normals = _normals(user, block, np.shape(x)[-1], seed)
    kept = normals.copy()
    y = transmit(x, h, 10.0 ** (-snr_db / 10.0), normals)
    assert np.array_equal(normals, kept)  # left as drawn
    return y


def test_awgn_coefficient_is_unity():
    h, h_hat = realize(KIND_AWGN, 0.0, 0, USER_NEAR, 0)
    assert h == 1.0 + 0.0j
    assert h_hat == h
    assert type(h) is type(h_hat) is complex


def test_noise_power_matches_snr():
    # unit-power input at 10 dB: empirical SNR within 0.2 dB over 1e6 symbols
    x = np.ones(1_000_000, dtype=complex)
    y = _send(x, 1.0 + 0.0j, 10.0, USER_NEAR, 0)
    snr_db = 10 * np.log10(1.0 / np.mean(np.abs(y - x) ** 2))
    assert abs(snr_db - 10.0) < 0.2


def test_noise_is_white_and_circular():
    n = _send(np.zeros(1_000_000, dtype=complex), 1.0 + 0.0j, 0.0, USER_NEAR, 1)
    # lag >= 1 autocorrelation below 1% of lag-0 power
    power = np.mean(np.abs(n) ** 2)
    for lag in (1, 2, 5):
        corr = np.mean(n[lag:] * np.conj(n[:-lag]))
        assert abs(corr) / power < 0.01
    # circular symmetry: real/imag equal power, uncorrelated
    assert abs(np.mean(n.real ** 2) - np.mean(n.imag ** 2)) / power < 0.01
    assert abs(np.mean(n.real * n.imag)) / power < 0.01


def test_rayleigh_fading_statistics():
    hs = np.array([realize(KIND_RAYLEIGH, 0.0, 0, USER_NEAR, b)[0] for b in range(20000)])
    assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, abs=0.03)
    assert abs(np.mean(hs)) < 0.02


def test_estimation_error_scale():
    # E|h_hat - h|^2 = delta^2 for delta = 0.15
    blocks = [realize(KIND_RAYLEIGH, 0.15, 0, USER_FAR, b) for b in range(20000)]
    errs = np.array([h_hat - h for h, h_hat in blocks])
    assert np.mean(np.abs(errs) ** 2) == pytest.approx(0.0225, rel=0.05)


def test_perfect_csi_when_delta_zero():
    h, h_hat = realize(KIND_RAYLEIGH, 0.0, 0, USER_NEAR, 3)
    assert h_hat == h


def test_equalize_inverts_known_channel():
    h, h_hat = realize(KIND_RAYLEIGH, 0.0, 0, USER_NEAR, 7)
    x = np.array([1 + 1j, -2 + 0.5j, 0.25j])
    y = _send(x, h, 300.0, USER_NEAR, 7)
    assert np.allclose(equalize(y, h_hat), x, atol=1e-6)


def test_equalize_rejects_a_zero_estimate():
    with pytest.raises(ZeroDivisionError, match="estimated channel coefficient is zero"):
        equalize(np.ones(3), 0j)


def test_realization_reproducible_per_key():
    a = realize(KIND_RAYLEIGH, 0.1, 0, USER_NEAR, 5)
    b = realize(KIND_RAYLEIGH, 0.1, 0, USER_NEAR, 5)
    assert a == b
    assert np.array_equal(_send(np.ones(8), a[0], 10.0, USER_NEAR, 5),
                          _send(np.ones(8), b[0], 10.0, USER_NEAR, 5))
    c = realize(KIND_RAYLEIGH, 0.1, 0, USER_NEAR, 6)
    assert c[0] != a[0]


def test_noise_is_the_complex_view_of_the_normal_draw():
    # the view must equal the old re + 1j*im matmul bit for bit
    h, _ = realize(KIND_RAYLEIGH, 0.1, 9, USER_FAR, 2)
    x = np.exp(1j * np.arange(20000))
    y = _send(x, h, 3.0, USER_FAR, 2, seed=9)
    n = _normals(USER_FAR, 2, 20000, seed=9) @ np.array([1.0, 1.0j])
    n *= np.sqrt(10.0 ** (-3.0 / 10.0) / 2.0)
    want = h * x + n
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64, np.complex128])
def test_transmit_equals_h_x_plus_n_for_every_input_dtype(dtype):
    # y = h x; y += n is h x + n in complex128 whatever the input precision
    h, _ = realize(KIND_RAYLEIGH, 0.1, 9, USER_NEAR, 1)
    z = 3.0 * np.exp(1j * np.arange(1000))
    x = (z if np.issubdtype(dtype, np.complexfloating) else z.real).astype(dtype)
    x = np.stack([x, -x])
    y = _send(x, h, 3.0, USER_NEAR, 1, seed=9)
    n = _normals(USER_NEAR, 1, 1000, seed=9).view(complex)[..., 0]
    n *= np.sqrt(10.0 ** (-3.0 / 10.0) / 2.0)
    want = h * x.astype(complex) + n
    assert y.dtype == np.complex128
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("normals", [np.zeros((699, 2)), np.zeros((700, 3)), np.zeros(1400),
                                     np.zeros((700, 2), dtype=np.float32)])
def test_transmit_rejects_normals_of_another_shape_or_type(normals):
    with pytest.raises(ValueError, match="noise normals"):
        transmit(np.ones(700), 1.0 + 0.0j, 0.1, normals)


def test_rows_of_one_transmit_share_its_noise_draw():
    # a cell's detectors stack their transmit signals: each row must get
    # exactly what a call of its own on the same normals gives
    h, _ = realize(KIND_RAYLEIGH, 0.1, 9, USER_NEAR, 4)
    x = np.stack([np.exp(1j * np.arange(500)), np.linspace(-1, 1, 500) + 0.5j])
    y = _send(x, h, 3.0, USER_NEAR, 4, seed=9)
    for row, x_row in zip(y, x):
        want = _send(x_row, h, 3.0, USER_NEAR, 4, seed=9)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def test_coefficients_take_fading_then_error_from_one_stream():
    # the training order: both pairs from the user's one TRAIN_FADING stream
    g = rng.stream_rng(5, 1, rng.TRAIN_FADING)
    h, h_hat = coefficients(KIND_RAYLEIGH, 0.3, lambda p: g.standard_normal((1, len(p), 2)), 1)
    z = rng.stream_rng(5, 1, rng.TRAIN_FADING).standard_normal(4)
    assert h.shape == h_hat.shape == (1,)
    assert h[0] == complex(z[0], z[1]) / math.sqrt(2.0)
    assert h_hat[0] == h[0] + 0.3 * complex(z[2], z[3]) / math.sqrt(2.0)


def _scalar_coefficients(kind, delta, gens):
    """One block drawn and scaled as Python complex numbers, the reference
    for the batched arrays; gens maps each purpose to its generator."""
    h = 1.0 + 0.0j
    if kind == KIND_RAYLEIGH:
        h = complex(*gens[rng.FADING].standard_normal(2)) / math.sqrt(2.0)
    if delta > 0:
        err = complex(*gens[rng.EST_ERROR].standard_normal(2))
        return h, h + delta * err / math.sqrt(2.0)
    return h, h


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("kind,delta", [(KIND_AWGN, 0.0), (KIND_AWGN, 0.2),
                                        (KIND_RAYLEIGH, 0.0), (KIND_RAYLEIGH, 0.1)])
def test_batched_coefficients_equal_scalar_draws(kind, delta, shared):
    # shared: one generator serves both draws, interleaved per block as in
    # training; otherwise each purpose has its own generator, as in realize
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
    h, h_hat = coefficients(kind, delta, stream_of(gens, n), n)
    gens = generators()
    ref = [_scalar_coefficients(kind, delta, gens) for _ in range(n)]
    gens = generators()
    one_by_one = [coefficients(kind, delta, stream_of(gens, 1), 1) for _ in range(n)]
    assert h.shape == h_hat.shape == (n,)
    for got, want in ((h, [r[0] for r in ref]), (h_hat, [r[1] for r in ref]),
                      (h, [c[0][0] for c in one_by_one]),
                      (h_hat, [c[1][0] for c in one_by_one])):
        assert np.array_equal(_bits(got), _bits(want))
    # the per-step factor training takes from Python scalars
    assert all(complex(a) / complex(b) == r[0] / r[1] for a, b, r in zip(h, h_hat, ref))


@pytest.mark.parametrize("kind,delta,opened", [
    (KIND_AWGN, 0.0, []),
    (KIND_AWGN, 0.2, [rng.EST_ERROR]),
    (KIND_RAYLEIGH, 0.0, [rng.FADING]),
    (KIND_RAYLEIGH, 0.2, [rng.FADING, rng.EST_ERROR]),
])
def test_realize_opens_only_the_streams_it_draws(monkeypatch, kind, delta, opened):
    purposes = []
    stream_rng = rng.stream_rng
    monkeypatch.setattr(rng, "stream_rng",
                        lambda *key: purposes.append(key[2]) or stream_rng(*key))
    realize(kind, delta, 0, USER_FAR, 3)
    assert purposes == opened
