"""AWGN and flat Rayleigh channels with imperfect CSI.

A realization freezes one fading block: the true coefficient h, the
receiver's estimate h_hat = h + delta * e with e ~ CN(0, 1), and the
noise power sigma2 = 10**(-snr_db / 10) defined against a unit-power
transmit signal.  Noise is drawn from the realization's own sub-stream,
so a (spec, user, block) triple always reproduces the same link.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng

KIND_AWGN = "awgn"
KIND_RAYLEIGH = "rayleigh"


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of one user's link."""

    kind: str = KIND_AWGN
    snr_db: float = 10.0
    estimation_error_delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_AWGN, KIND_RAYLEIGH):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.estimation_error_delta < 0:
            raise ValueError("estimation_error_delta must be >= 0")


@dataclass(frozen=True)
class ChannelRealization:
    """One fading block: coefficient, CSI estimate, noise power and stream."""

    h: complex
    h_hat: complex
    sigma2: float
    _noise_rng: np.random.Generator = field(repr=False, compare=False)


def realize(spec: ChannelSpec, user: int = 0, block: int = 0) -> ChannelRealization:
    """Draw one fading block for the given user and block index."""
    if spec.kind == KIND_AWGN:
        h = 1.0 + 0.0j
    else:
        g = _rng.stream_rng(spec.seed, user, _rng.FADING, block)
        re, im = g.standard_normal(2)
        h = complex(re, im) / np.sqrt(2.0)
    if spec.estimation_error_delta > 0:
        ge = _rng.stream_rng(spec.seed, user, _rng.EST_ERROR, block)
        re, im = ge.standard_normal(2)
        err = complex(re, im) / np.sqrt(2.0)
        h_hat = h + spec.estimation_error_delta * err
    else:
        h_hat = h
    sigma2 = 10.0 ** (-spec.snr_db / 10.0)
    noise = _rng.stream_rng(spec.seed, user, _rng.NOISE, block)
    return ChannelRealization(h, h_hat, sigma2, noise)


def transmit(x: np.ndarray, real: ChannelRealization) -> np.ndarray:
    """y = h x + n with n ~ CN(0, sigma2), fresh noise per call."""
    x = np.asarray(x)
    n = real._noise_rng.standard_normal((*x.shape, 2)).view(complex)[..., 0]
    n *= np.sqrt(real.sigma2 / 2.0)
    return real.h * x + n


def equalize(y: np.ndarray, real: ChannelRealization) -> np.ndarray:
    """Single-tap zero forcing with the estimated coefficient: y / h_hat."""
    if real.h_hat == 0:
        raise ZeroDivisionError("estimated channel coefficient is zero")
    return np.asarray(y) / real.h_hat
