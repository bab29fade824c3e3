"""AWGN and flat Rayleigh channels with imperfect CSI.

One fading block is the true coefficient h and the receiver's estimate
h_hat = h + delta * e with e ~ CN(0, 1); its noise power sigma2 =
10**(-snr_db / 10) is defined against a unit-power transmit signal.
realize draws a block's (h, h_hat) from the streams keyed by (seed,
user, block), so the same key always gives the same link; the config's
sweep section checks the channel kind and delta.

Each transmit call adds one noise draw, for the last axis of its input,
to every row before it, from the normals it is handed.  link.run_link
stacks the transmit signals of all detectors of a cell and calls it
once per user, so every detector sees the same noise: one draw per user
and block, shared by the detectors.  A sweep draws each cell's noise
normals ahead, from the user's NOISE stream of that block
(link.open_cell), and run_link hands them to transmit.
"""

import math

import numpy as np

from . import rng as _rng

KIND_AWGN = "awgn"
KIND_RAYLEIGH = "rayleigh"


def coefficients(kind: str, delta: float, stream, n: int):
    """Coefficients h and estimates h_hat of n fading blocks, (n,) arrays.

    A block draws one (re, im) normal pair for the fading on Rayleigh,
    then one for the estimation error when delta > 0.  stream(purposes)
    gets the purposes of the draws made (rng.FADING, rng.EST_ERROR) and
    returns their normals as an (n, len(purposes), 2) array; it is not
    called when no draw is made.
    """
    purposes = [p for p, made in ((_rng.FADING, kind == KIND_RAYLEIGH),
                                  (_rng.EST_ERROR, delta > 0))
                if made]
    h = np.ones(n, dtype=complex)
    if not purposes:
        return h, h
    z = stream(purposes)
    # scaled as real pairs: numpy's complex / real multiplies by a reciprocal
    if kind == KIND_RAYLEIGH:
        h = (z[:, 0] / math.sqrt(2.0)).view(complex)[:, 0]
    if delta > 0:
        err = delta * z[:, -1] / math.sqrt(2.0)
        return h, h + err.view(complex)[:, 0]
    return h, h


def realize(kind: str, delta: float, seed: int, user: int, block: int) -> tuple[complex, complex]:
    """(h, h_hat) of one fading block for the given user and block index."""
    h, h_hat = coefficients(kind, delta, lambda purposes: np.array(
        [[_rng.stream_rng(seed, user, p, block).standard_normal(2) for p in purposes]]), 1)
    return complex(h[0]), complex(h_hat[0])


def transmit(x: np.ndarray, h: complex, sigma2: float, normals: np.ndarray) -> np.ndarray:
    """y = h x + n with n ~ CN(0, sigma2).

    n has the length of x's last axis and is shared by all of x's rows.
    Its (re, im) pairs are normals, the noise stream's next len(n) x 2
    standard normals, drawn ahead (link.CellDraws), scaled.
    """
    # complex128 up front: float32 or complex64 input still gets a complex128
    # result, and the in-place add below does not round the noise to it
    x = np.asarray(x, dtype=complex)
    shape = (*x.shape[-1:], 2)
    if normals.shape != shape or normals.dtype != np.float64:
        raise ValueError(f"noise normals must be float64 of shape {shape}")
    n = normals.view(complex)[..., 0] * np.sqrt(sigma2 / 2.0)
    y = h * x
    y += n
    return y


def equalize(y: np.ndarray, h_hat: complex) -> np.ndarray:
    """Single-tap zero forcing with the estimated coefficient: y / h_hat."""
    if h_hat == 0:
        raise ZeroDivisionError("estimated channel coefficient is zero")
    return np.asarray(y) / h_hat
