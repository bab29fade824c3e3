"""Independent reference implementations and frozen expected values.

Everything here is deliberately written from first principles (integer
and Fraction arithmetic, plain python loops) and shares no code with
the production modules beyond domain dataclasses, so agreement between
the two is evidence rather than tautology.  The one exception is
inline_sweep_rows at the end, a reference path for the sweep's loop
alone (see there).
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


# ---- reference paths: serial training and sweep ------------------------------

# key layout and purpose codes of the package's Philox streams
_WEIGHT_INIT, _TRAIN_DATA, _TRAIN_NOISE, _TRAIN_FADING = 4, 5, 7, 8


def _philox(seed: int, user: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + (user << 40)
                                                + (purpose << 32)))


def _init_user(seed: int, user: int, widths):
    """Modulator weight and bias, then each dense layer's W and b, all
    uniform, drawn in that order from the user's weight stream."""
    g = _philox(seed, user, _WEIGHT_INIT)
    params = {"mod_w": g.uniform(-1.0, 1.0, size=2), "mod_b": g.uniform(-1.0, 1.0, size=2),
              "W": [], "b": []}
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(n_in)
        params["W"].append(g.uniform(-bound, bound, size=(n_in, n_out)))
        params["b"].append(g.uniform(-bound, bound, size=n_out))
    return params


def _channel_draws(g, kind: str, delta: float, batches: int):
    """Per batch, the (h, h_hat) Python complex pair: the fading's (re, im)
    normals on Rayleigh, then the CSI error's when delta > 0, from one
    stream."""
    count = (kind == "rayleigh") + (delta > 0)
    z = g.standard_normal((batches, count, 2)) if count else None
    pairs = []
    for k in range(batches):
        h = complex(*(z[k, 0] / math.sqrt(2.0))) if kind == "rayleigh" else 1 + 0j
        h_hat = h + complex(*(delta * z[k, -1] / math.sqrt(2.0))) if delta > 0 else h
        pairs.append((h, h_hat))
    return pairs


def per_user_training(cfg, seed: int, q_near, q_far):
    """The alternating SGD of modem.train_modem with each user's network
    run on its own, by 2-D products.

    Per batch: both users' modulators under their live power normalizer,
    one superimposed transmission, then per user its channel, a forward
    pass of its demodulator, the backward pass of its own scaled loss and
    an SGD step of every weight it owns.  cfg is a
    config.ExperimentConfig: the loop's settings come from cfg.train,
    the power split from cfg.link and the channel kind and CSI error
    from cfg.sweep; q_near and q_far are the quantizers of cfg.quant.
    Returns ((near, far), trace): each user's dict of mod_w, mod_b and
    the W and b lists, and the per-epoch mean (near, far) losses.
    """
    tc, link = cfg.train, cfg.link
    kind, delta = cfg.sweep.kind, cfg.sweep.estimation_error_delta
    users = [_init_user(seed, u, [2, *tc.hidden, out]) for u, out in ((0, 2), (1, 1))]
    data = _philox(seed, 0, _TRAIN_DATA)
    v_all = [data.choice(q.constellation_deq, size=tc.dataset_size) for q in (q_near, q_far)]
    noise_g = [_philox(seed, u, _TRAIN_NOISE) for u in (0, 1)]
    fade_g = [_philox(seed, u, _TRAIN_FADING) for u in (0, 1)]
    sigma2 = [10.0 ** (-tc.snr_train_near_db / 10.0), 10.0 ** (-tc.snr_train_far_db / 10.0)]
    amps = ((math.sqrt(link.rho_near), math.sqrt(link.rho_far)) if link.superposition == "sqrt"
            else (link.rho_near, link.rho_far))
    var = (q_near.variance, q_far.variance)
    size, batches = tc.batch_size, tc.dataset_size // tc.batch_size
    lr = tc.learning_rate
    trace = np.zeros((tc.epochs, 2))
    for epoch in range(tc.epochs):
        perm = data.permutation(tc.dataset_size)
        chans, noises = [], []
        for u in (0, 1):
            chans.append(_channel_draws(fade_g[u], kind, delta, batches))
            noise = noise_g[u].standard_normal((batches, size, 2)).view(complex)[..., 0]
            noise *= math.sqrt(sigma2[u] / 2.0)
            noises.append(noise)
        ep_loss = np.zeros(2)
        for bi in range(batches):
            sel = perm[bi * size:(bi + 1) * size]
            v = [v_all[0][sel], v_all[1][sel]]
            mods, s = [], []
            for p, q, vu in zip(users, (q_near, q_far), v):
                raw = vu[:, None] * p["mod_w"] + p["mod_b"]
                raw_c = q.constellation_deq[:, None] * p["mod_w"] + p["mod_b"]
                pbar = float((raw_c ** 2).sum(axis=1).mean())
                norm = raw / math.sqrt(pbar)
                mods.append((raw_c, pbar, norm))
                s.append(norm[:, 0] + 1j * norm[:, 1])
            x = amps[0] * s[0] + amps[1] * s[1]
            # near targets both features, far only its own
            targets = [np.stack(v, axis=1), v[1][:, None]]
            losses = []
            for u, p in enumerate(users):
                h, h_hat = chans[u][bi]
                eq = (h * x + noises[u][bi]) / h_hat
                acts = [eq.view(np.float64).reshape(-1, 2)]
                for W, b in zip(p["W"][:-1], p["b"][:-1]):
                    z = acts[-1] @ W + b
                    acts.append(np.where(z > 0, z, 0.0))
                out = acts[-1] @ p["W"][-1] + p["b"][-1]
                err = out - targets[u]
                losses.append(float(((err ** 2).sum(axis=0) / size).sum()))
                # each term scaled by the variance of its feature's constellation
                if u == 0:
                    g = 2.0 * err / size
                    g /= np.array(var)
                else:
                    g = 2.0 * err / (size * var[1])
                gW, gb = [], []
                for i in reversed(range(len(p["W"]))):
                    if i < len(p["W"]) - 1:
                        g = g * (acts[i + 1] > 0)
                    gW.insert(0, acts[i].T @ g)
                    gb.insert(0, g.sum(axis=0))
                    g = g @ p["W"][i].T
                # back through the channel and the superposition to this
                # user's own normalized symbols, then its normalizer
                g_s = amps[u] * (np.conj(h / h_hat) * (g[:, 0] + 1j * g[:, 1]))
                g_norm = g_s.view(np.float64).reshape(-1, 2)
                raw_c, pbar, norm = mods[u]
                cpts = (q_near, q_far)[u].constellation_deq
                g_raw = g_norm / math.sqrt(pbar)
                g_pbar = -float((g_norm * norm).sum()) / (2.0 * pbar)
                dp_dw = (2.0 / len(cpts)) * (raw_c * cpts[:, None]).sum(axis=0)
                dp_db = (2.0 / len(cpts)) * raw_c.sum(axis=0)
                p["mod_w"] -= lr * ((g_raw * v[u][:, None]).sum(axis=0) + g_pbar * dp_dw)
                p["mod_b"] -= lr * (g_raw.sum(axis=0) + g_pbar * dp_db)
                for W, b, gW_i, gb_i in zip(p["W"], p["b"], gW, gb):
                    W -= lr * gW_i
                    b -= lr * gb_i
            ep_loss += losses
        trace[epoch] = ep_loss / batches
    return tuple(users), trace


def inline_sweep_rows(cfg, seed: int, detectors, models=None):
    """The data rows of sweep.csv for cfg, by the serial loop: cell after
    cell, each cell's draws opened and filled inline on this thread into
    buffers of its own, and its constellations built for it alone.

    This calls the package's per-cell functions on purpose: it is the
    reference for the sweep's loop (draws made ahead on a helper thread,
    buffers reused, constellations built once), not for the cell.
    """
    from nomalink.link import build_constellations, open_cell, run_link

    sw = cfg.sweep
    step = sw.grid_step_db
    near_grid = np.arange(sw.snr_near_lo_db, sw.snr_near_hi_db + step / 2.0, step)
    far_grid = np.arange(sw.snr_far_lo_db, sw.snr_far_hi_db + step / 2.0, step)
    rows = []
    for i, snr_n in enumerate(near_grid):
        for j, snr_f in enumerate(far_grid):
            block = i * len(far_grid) + j
            draws = open_cell((float(snr_n), float(snr_f)), sw.n_symbols, sw.kind,
                              sw.estimation_error_delta, seed, block).fill()
            for rep in run_link(build_constellations(cfg, models), draws, tuple(detectors)):
                rows.append((rep.detector, sw.kind, sw.estimation_error_delta, float(snr_n),
                             float(snr_f), rep.mse_near, rep.mse_far, rep.ser_near,
                             rep.ser_far))
    return rows
