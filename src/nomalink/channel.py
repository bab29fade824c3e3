"""AWGN and flat Rayleigh channels with imperfect CSI.

A realization freezes one fading block: the true coefficient h, the
receiver's estimate h_hat = h + delta * e with e ~ CN(0, 1), and the
noise power sigma2 = 10**(-snr_db / 10) defined against a unit-power
transmit signal.  Noise is drawn from the realization's own sub-stream,
so a (spec, user, block) triple always reproduces the same link.

Each transmit call adds one noise draw, for the last axis of its input,
to every row before it, from the normals it is handed.  link.run_link
stacks the transmit signals of all detectors of a cell and calls it
once per user, so every detector sees the same noise: one draw per user
and block, shared by the detectors.  A sweep draws each cell's noise normals ahead, from the
realization's stream (link.open_cell), and run_link hands them to
transmit.
"""

import math
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


def coefficients(spec: ChannelSpec, stream, n: int):
    """Coefficients h and estimates h_hat of n fading blocks, (n,) arrays.

    A block draws one (re, im) normal pair for the fading on Rayleigh,
    then one for the estimation error when delta > 0.  stream(purposes)
    gets the purposes of the draws made (rng.FADING, rng.EST_ERROR) and
    returns their normals as an (n, len(purposes), 2) array; it is not
    called when no draw is made.
    """
    purposes = [p for p, made in ((_rng.FADING, spec.kind == KIND_RAYLEIGH),
                                  (_rng.EST_ERROR, spec.estimation_error_delta > 0))
                if made]
    h = np.ones(n, dtype=complex)
    if not purposes:
        return h, h
    z = stream(purposes)
    # scaled as real pairs: numpy's complex / real multiplies by a reciprocal
    if spec.kind == KIND_RAYLEIGH:
        h = (z[:, 0] / math.sqrt(2.0)).view(complex)[:, 0]
    if spec.estimation_error_delta > 0:
        err = spec.estimation_error_delta * z[:, -1] / math.sqrt(2.0)
        return h, h + err.view(complex)[:, 0]
    return h, h


def realize(spec: ChannelSpec, user: int = 0, block: int = 0) -> ChannelRealization:
    """Draw one fading block for the given user and block index."""
    h, h_hat = coefficients(spec, lambda purposes: np.array(
        [[_rng.stream_rng(spec.seed, user, p, block).standard_normal(2) for p in purposes]]), 1)
    sigma2 = 10.0 ** (-spec.snr_db / 10.0)
    noise = _rng.stream_rng(spec.seed, user, _rng.NOISE, block)
    return ChannelRealization(complex(h[0]), complex(h_hat[0]), sigma2, noise)


def transmit(x: np.ndarray, real: ChannelRealization, normals: np.ndarray) -> np.ndarray:
    """y = h x + n with n ~ CN(0, sigma2).

    n has the length of x's last axis and is shared by all of x's rows.
    Its (re, im) pairs are normals, the realization's next len(n) x 2
    standard normals, drawn ahead (link.CellDraws), scaled.
    """
    # complex128 up front: float32 or complex64 input still gets a complex128
    # result, and the in-place add below does not round the noise to it
    x = np.asarray(x, dtype=complex)
    shape = (*x.shape[-1:], 2)
    if normals.shape != shape or normals.dtype != np.float64:
        raise ValueError(f"noise normals must be float64 of shape {shape}")
    n = normals.view(complex)[..., 0] * np.sqrt(real.sigma2 / 2.0)
    y = real.h * x
    y += n
    return y


def equalize(y: np.ndarray, real: ChannelRealization) -> np.ndarray:
    """Single-tap zero forcing with the estimated coefficient: y / h_hat."""
    if real.h_hat == 0:
        raise ZeroDivisionError("estimated channel coefficient is zero")
    return np.asarray(y) / real.h_hat
