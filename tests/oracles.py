"""Independent reference implementations and frozen expected values.

Everything here is deliberately written from first principles (integer
and Fraction arithmetic, plain python loops) and shares no code with
the production modules beyond domain dataclasses, so agreement between
the two is evidence rather than tautology.
"""

import math
from fractions import Fraction

import numpy as np

# ---- frozen scalars -------------------------------------------------------

# asymmetric quantizer, m=2, s=5, d=1
EXPECTED_SCALE_FS = 0.3
EXPECTED_ZERO_PZ = -1
EXPECTED_CONSTELLATION_M2_S5_D1 = (
    -3.3333333333333335, 0.0, 3.3333333333333335, 6.666666666666667)

# closed-form effective SNRs at gains 20/16 dB, shares 0.3/0.7
EXPECTED_SNR_NEAR_DB = 14.771212547196624
EXPECTED_SNR_FAR_DB = 3.330558707941513

# BPSK/BPSK SIC chain at shares 0.3/0.7, composite sqrt(0.7) - sqrt(0.3)
EXPECTED_SIC_COMPOSITE = 0.2889374690289095
EXPECTED_SIC_RESIDUAL = -0.5477225575051661

# unit-power 4-QAM, index 0
EXPECTED_QAM4_INDEX0 = complex(-0.7071067811865475, -0.7071067811865475)

# architecture cost for hidden widths (32, 32, 32)
EXPECTED_MACS_NEAR = 2178
EXPECTED_MACS_FAR = 2146
EXPECTED_MACS_SIC_M2_M2 = 32


# ---- independent quantizer ------------------------------------------------

def oracle_quantizer(m: int, s, d):
    """Exact (Fraction) scale, zero point and dequantized levels."""
    s, d = Fraction(s), Fraction(d)
    fs = Fraction(2 ** m - 1, 1) / (2 * s)
    raw = (d - s) * fs
    # round half away from zero in exact arithmetic
    sign = -1 if raw < 0 else 1
    pz = sign * math.floor(abs(raw) + Fraction(1, 2))
    levels = [Fraction(i + pz, 1) / fs for i in range(2 ** m)]
    return fs, pz, levels


def oracle_quantize(x: float, m: int, s, d) -> int:
    fs, pz, _ = oracle_quantizer(m, s, d)
    raw = Fraction(x) * fs
    sign = -1 if raw < 0 else 1
    idx = sign * math.floor(abs(raw) + Fraction(1, 2)) - pz
    return int(min(max(idx, 0), 2 ** m - 1))


def oracle_dequantize(i: int, m: int, s, d) -> float:
    _, _, levels = oracle_quantizer(m, s, d)
    return float(levels[i])


# ---- exhaustive composite enumeration -------------------------------------

def enumerate_index_pairs(m_near: int, m_far: int):
    """All (near, far) quantizer index pairs, row-major."""
    pairs = [(i, j) for i in range(2 ** m_near) for j in range(2 ** m_far)]
    near = np.array([p[0] for p in pairs])
    far = np.array([p[1] for p in pairs])
    return near, far


def representative_features(m: int, s, d):
    """One in-range feature value per quantizer index.

    Dequantized levels can overshoot the legal feature range [d-s, d+s]
    by up to half a step, so boundary indices get the nearest in-range
    value that still rounds to them.
    """
    _, _, levels = oracle_quantizer(m, s, d)
    lo, hi = float(Fraction(d) - Fraction(s)), float(Fraction(d) + Fraction(s))
    return [min(max(float(v), lo), hi) for v in levels]


def sic_reference(y, points_near, points_far, rho_near, rho_far):
    """Plain-loop SIC for the sqrt convention (amplitudes sqrt(rho))."""
    return _sic_loop(y, points_near, points_far,
                     math.sqrt(rho_near), math.sqrt(rho_far))


def literal_sic_reference(y, points_near, points_far, rho_near, rho_far):
    """Plain-loop SIC for the literal convention (amplitudes rho)."""
    return _sic_loop(y, points_near, points_far, rho_near, rho_far)


def _sic_loop(y, points_near, points_far, a_n, a_f):
    """Far first under interference, then the residual, at amplitudes a."""
    out_n, out_f = [], []
    for yy in np.atleast_1d(np.asarray(y, dtype=complex)):
        j = min(range(len(points_far)),
                key=lambda k: abs(yy / a_f - points_far[k]))
        resid = (yy - a_f * points_far[j]) / a_n
        i = min(range(len(points_near)),
                key=lambda k: abs(resid - points_near[k]))
        out_n.append(i)
        out_f.append(j)
    return np.array(out_n), np.array(out_f)


def dense_nearest(y, points):
    """Nearest point by the full (N, len(points)) distance matrix, ties to
    the lowest index: the exhaustive search the detector must reproduce."""
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    d = np.abs(y[:, None] - np.asarray(points, dtype=complex)[None, :])
    return np.argmin(d, axis=1)


def gray_reference(n_bits: int):
    """Reflected binary code built by the mirror construction."""
    codes = [0, 1]
    for b in range(1, n_bits):
        codes = codes + [c | (1 << b) for c in reversed(codes)]
    return codes[: 2 ** n_bits]


# ---- finite differences ---------------------------------------------------

def fd_gradient(fun, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(array, dtype=float)
    flat = array.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + eps
        hi = fun()
        flat[k] = keep - eps
        lo = fun()
        flat[k] = keep
        gflat[k] = (hi - lo) / (2 * eps)
    return g


# ---- independent logistic helpers for region oracles ----------------------

def _xi(a1, a2, c1, c2, gamma):
    return a1 + (a2 - a1) / (1.0 + math.exp(-(c1 * gamma + c2)))


def _gamma_needed(a1, a2, c1, c2, target):
    """Inverse accuracy; -inf below the floor, +inf at/above the ceiling."""
    if target <= a1:
        return -math.inf
    if target >= a2:
        return math.inf
    return (math.log((target - a1) / (a2 - target)) - c2) / c1


# ---- dense region searches ------------------------------------------------

def dense_noma_rate(model_n, model_f, g_n, g_f, pref_n, pref_f,
                    xi_req_far, rate_grid):
    """Closed-form NOMA rate curve recomputed from scratch."""
    tn = (model_n.a1, model_n.a2, model_n.c1, model_n.c2)
    tf = (model_f.a1, model_f.a2, model_f.c1, model_f.c2)
    out = []
    for rate_n in rate_grid:
        need = _gamma_needed(*tn, rate_n / pref_n)
        if need == math.inf:
            out.append(math.nan)
            continue
        rho = min(max(need / g_n, 0.0), 1.0)
        acc_f = _xi(*tf, (1.0 - rho) * g_f / (rho * g_f + 1.0))
        out.append(pref_f * acc_f if acc_f >= xi_req_far - 1e-12 else math.nan)
    return np.array(out)


def dense_oma_rate(model_n, model_f, g_n, g_f, w, pref_n, pref_f,
                   xi_req_near, xi_req_far, rate_grid, n_grid):
    """Exhaustive OMA rate curve over the near bandwidth slice."""
    tn = (model_n.a1, model_n.a2, model_n.c1, model_n.c2)
    tf = (model_f.a1, model_f.a2, model_f.c1, model_f.c2)
    out = []
    for rate_n in rate_grid:
        best = math.nan
        for k in range(1, n_grid):
            w_n = w * k / n_grid
            w_f = w - w_n
            need = max(_gamma_needed(*tn, rate_n * w / (pref_n * w_n)),
                       _gamma_needed(*tn, xi_req_near))
            if need == math.inf:
                continue
            rho = max(0.0, need * w_n / (w * g_n))
            if rho > 1.0:
                continue
            acc_f = _xi(*tf, (1.0 - rho) * g_f * w / w_f)
            if acc_f < xi_req_far - 1e-12:
                continue
            y = pref_f * (w_f / w) * acc_f
            if math.isnan(best) or y > best:
                best = y
        out.append(best)
    return np.array(out)


def dense_noma_power(model_n, model_f, g_n, g_f, pref_n, pref_f, xi_req_far,
                     rate_req_near, rate_req_far, levels, n_grid):
    """Exhaustive NOMA minimum total power share over the near share."""
    tn = (model_n.a1, model_n.a2, model_n.c1, model_n.c2)
    tf = (model_f.a1, model_f.a2, model_f.c1, model_f.c2)
    out = []
    for level in levels:
        need_n = max(_gamma_needed(*tn, level),
                     _gamma_needed(*tn, rate_req_near / pref_n))
        need_f = max(_gamma_needed(*tf, xi_req_far),
                     _gamma_needed(*tf, rate_req_far / pref_f))
        if need_n == math.inf or need_f == math.inf:
            out.append(math.nan)
            continue
        rho_lo = max(0.0, need_n / g_n)
        best = math.nan
        for k in range(n_grid + 1):
            rho_n = rho_lo + (1.0 - rho_lo) * k / n_grid
            if rho_n > 1.0:
                break
            rho_f = max(0.0, need_f * (1.0 / g_f + rho_n))
            tot = rho_n + rho_f
            if rho_f > 1.0 or tot > 1.0 + 1e-12:
                continue
            if math.isnan(best) or tot < best:
                best = tot
        out.append(best)
    return np.array(out)


def dense_oma_power(model_n, model_f, g_n, g_f, w, pref_n, pref_f, xi_req_far,
                    rate_req_near, rate_req_far, levels, n_grid):
    """Exhaustive OMA minimum total power share over the bandwidth split."""
    tn = (model_n.a1, model_n.a2, model_n.c1, model_n.c2)
    tf = (model_f.a1, model_f.a2, model_f.c1, model_f.c2)
    w_lo = rate_req_near * w / pref_n
    out = []
    for level in levels:
        best = math.nan
        for k in range(1, n_grid):
            w_n = max(w_lo, w / n_grid) + (w - max(w_lo, w / n_grid)) * k / n_grid
            w_f = w - w_n
            if w_n <= 0 or w_f <= 0:
                continue
            need_n = max(_gamma_needed(*tn, level),
                         _gamma_needed(*tn, rate_req_near * w / (pref_n * w_n)))
            need_f = max(_gamma_needed(*tf, xi_req_far),
                         _gamma_needed(*tf, rate_req_far * w / (pref_f * w_f)))
            if need_n == math.inf or need_f == math.inf:
                continue
            tot = (max(0.0, need_n * w_n / (w * g_n))
                   + max(0.0, need_f * w_f / (w * g_f)))
            if tot > 1.0 + 1e-12:
                continue
            if math.isnan(best) or tot < best:
                best = tot
        out.append(best)
    return np.array(out)
