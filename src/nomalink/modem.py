"""Trainable neural modulator/demodulator pair for two-user superposition.

The modulator of each user is a single 1 -> 2 dense layer (identity
activation) whose two outputs are the real and imaginary part of the
transmit symbol.  Symbols are normalized by the square root of the mean
symbol power taken over the user's dequantized constellation under a
uniform prior; during training that mean is a live, differentiable
function of the modulator weights, after training it is frozen into the
model.  The demodulator is a small ReLU MLP on (re, im) of the equalized
receive sample.  The near user's demodulator has two outputs, its own
feature estimate first and the far user's second; the far demodulator has
one output.

Training follows an alternating scheme: per mini-batch both losses are
computed from one superimposed transmission, the near network's
parameters are updated only with the gradient of the near loss and the
far network's only with the far loss.  The models hold parameters
only: pair_forward's cache carries the demodulator activations to
pair_backward, which returns every gradient for the loop to apply.
Both demodulators have the same hidden widths, so training holds their
hidden layers on a leading axis of 2 (stack_hidden) and runs one
forward, backward and SGD step of that stack per batch, bit for bit
what two runs of it would compute; each user's output layer and
modulator stay its own.  Each epoch draws each user's channel
coefficients and noise at once.  train_modem reads every setting from
the experiment config (config.ExperimentConfig), which checks them when
it is built.

Losses are squared Euclidean distances between true and estimated
dequantized features.  The gradient step normalizes each squared-error
term by the variance of that user's dequantized constellation
(QuantizerParams.variance, fixed when the quantizer is fitted), which
makes the optimization invariant to the arbitrary feature scale (the
same learning rate works for s = 5 and s = 0.5) and keeps plain SGD at
the default rate stable.  The recorded loss trace stays in raw
dequantized units.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .channel import coefficients
from .config import ExperimentConfig
from .nn import Mlp, dense_macs
from .quant import QuantizerParams, fit_quantizer

ROLE_NEAR = "near"
ROLE_FAR = "far"

_MODEL_FORMAT = "nomalink-modem-v1"
# receiver soft limiter: inputs are shrunk onto a sphere of this many
# noise deviations beyond the largest clean composite point seen in training
_CLIP_SIGMAS = 4.0


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""


@dataclass
class ModemModel:
    """One user's modulator + demodulator with its quantizer.

    mean_power is None while the model is still being trained (the
    normalizer then recomputes it from the live weights) and a frozen
    float afterwards.  input_clip_radius, when set, bounds the magnitude
    of equalized receive samples before demodulation so that test inputs
    far outside the training envelope cannot drive the MLP into wild
    extrapolation.
    """

    role: str
    mod_w: np.ndarray
    mod_b: np.ndarray
    demod: Mlp
    quantizer: QuantizerParams
    mean_power: float | None = None
    input_clip_radius: float | None = None


def modulate(v, model: ModemModel) -> np.ndarray:
    """Map dequantized feature values to raw complex symbols."""
    v = np.asarray(v, dtype=float)
    re = v * model.mod_w[0] + model.mod_b[0]
    im = v * model.mod_w[1] + model.mod_b[1]
    return re + 1j * im


def mean_symbol_power(model: ModemModel) -> float:
    """Mean |symbol|^2 over the constellation under a uniform prior."""
    s = modulate(model.quantizer.constellation_deq, model)
    return float(np.mean(np.abs(s) ** 2))


def tx_symbols(v, model: ModemModel) -> np.ndarray:
    """Modulate and scale to unit mean power with the model's frozen mean
    power."""
    if model.mean_power is None:
        raise ValueError("model has no frozen mean power (still training?)")
    if model.mean_power <= 0:
        raise ValueError("mean power must be positive")
    return modulate(v, model) / math.sqrt(model.mean_power)


def demodulate(received, model: ModemModel) -> np.ndarray:
    """Estimate dequantized feature values from equalized receive samples.

    Returns an (n, out_dim) array; for a near model column 0 is the near
    feature estimate and column 1 the far one.
    """
    y = np.atleast_1d(np.asarray(received, dtype=complex))
    radius = model.input_clip_radius
    if radius is not None:
        mag = np.abs(y)
        # rows inside the radius would be scaled by 1.0, which can flip only
        # the sign of a zero part; a NaN maximum fails the test and takes the
        # scaling path
        if not mag.max(initial=0.0) <= radius:
            y = y * np.where(mag > radius, radius / np.maximum(mag, 1e-300), 1.0)
    # (re, im) pairs as a view of the complex samples
    return model.demod.infer(np.ascontiguousarray(y).view(np.float64).reshape(len(y), 2))


def modem_macs(widths) -> int:
    """Multiply-accumulate operations for one symbol through the 1 -> 2
    modulator and a demodulator of these widths."""
    return 2 + dense_macs(widths)


def count_macs(model: ModemModel) -> int:
    """Multiply-accumulate operations for one symbol through mod + demod."""
    return modem_macs(model.demod.widths)


# ---------------------------------------------------------------------------
# training

def _live_norm(model: ModemModel, v: np.ndarray, norm: np.ndarray):
    """Forward through modulator + live power normalizer into norm, a
    (B, 2) array; returns the intermediates needed for backprop."""
    raw = v[:, None] * model.mod_w + model.mod_b            # (B, 2)
    cpts = model.quantizer.constellation_deq
    raw_c = cpts[:, None] * model.mod_w + model.mod_b        # (M, 2)
    pbar = float((raw_c**2).sum(axis=1).sum() / len(cpts))  # the mean, as .mean() sums
    np.divide(raw, math.sqrt(pbar), out=norm)
    return v, raw, raw_c, pbar, norm


def _live_norm_backward(model: ModemModel, g_norm: np.ndarray, cache):
    """Accumulate modulator gradients for the live-normalized forward."""
    v, raw, raw_c, pbar, norm = cache
    g_raw = g_norm / math.sqrt(pbar)
    # d norm / d pbar = -raw / (2 pbar^{3/2}) = -norm / (2 pbar)
    g_pbar = -float((g_norm * norm).sum()) / (2.0 * pbar)
    m = raw_c.shape[0]
    cpts = model.quantizer.constellation_deq
    dp_dw = (2.0 / m) * (raw_c * cpts[:, None]).sum(axis=0)  # (2,)
    dp_db = (2.0 / m) * raw_c.sum(axis=0)
    gw = (g_raw * v[:, None]).sum(axis=0) + g_pbar * dp_dw
    gb = g_raw.sum(axis=0) + g_pbar * dp_db
    return gw, gb


@dataclass(frozen=True)
class PairLosses:
    """Raw dequantized-unit losses and their scale-normalized versions.

    The scaled losses divide every squared-error term by the variance of
    the corresponding user's constellation; gradients are taken of these.
    """

    near: float
    far: float
    near_scaled: float
    far_scaled: float


def stack_hidden(near: ModemModel, far: ModemModel) -> Mlp | None:
    """Both demodulators' hidden layers as one Mlp on a leading axis of 2
    (near, far), or None when they have none.

    Their widths must be equal.  Each model's hidden W and b become views
    of the stack, so one sgd_step on it trains both, and the models hold
    the trained weights when training ends.
    """
    widths = near.demod.widths[:-1]
    if far.demod.widths[:-1] != widths:
        raise ValueError("near and far demodulators differ in their hidden widths")
    if len(widths) == 1:
        return None
    hidden = Mlp(widths)
    hidden.W = [np.stack(pair) for pair in zip(near.demod.W[:-1], far.demod.W[:-1])]
    hidden.b = [np.stack(pair)[:, None] for pair in zip(near.demod.b[:-1], far.demod.b[:-1])]
    for k, model in enumerate((near, far)):
        model.demod.W[:-1] = [W[k] for W in hidden.W]
        model.demod.b[:-1] = [b[k, 0] for b in hidden.b]
    return hidden


def pair_forward(hidden: Mlp | None, near: ModemModel, far: ModemModel, vn, vf,
                 amp_n, amp_f, chan_n, chan_f):
    """Both users' losses for one batch with fixed channel draws.

    hidden is stack_hidden(near, far).  chan_* is a (h, h_hat,
    noise_array) triple for that user's receiver.  Returns (PairLosses,
    cache); the cache holds what pair_backward needs, the demodulators'
    activations among it.
    """
    b = len(vn)
    norms = np.empty((2, b, 2))  # both users' normalized (re, im) symbols
    cache_n = _live_norm(near, vn, norms[0])
    cache_f = _live_norm(far, vf, norms[1])
    s = norms[..., 0] + 1j * norms[..., 1]
    x = amp_n * s[0] + amp_f * s[1]

    eq = np.empty((2, b), dtype=complex)  # both receivers' equalized samples
    factors = []
    for row, (h, h_hat, noise) in zip(eq, (chan_n, chan_f)):
        np.divide(h * x + noise, h_hat, out=row)
        factors.append(h / h_hat)
    # (re, im) pairs as a view; the hidden layers of both users in one pass,
    # then each user's own output layer on the last hidden activations
    inp = eq.view(np.float64).reshape(2, b, 2)
    if hidden is None:
        top, acts = inp, None
    else:
        top, acts = hidden.forward(inp)
        np.fmax(top, 0.0, out=top)  # the ReLU after the last hidden layer
    out_n = top[0] @ near.demod.W[-1] + near.demod.b[-1]
    out_f = top[1] @ far.demod.W[-1] + far.demod.b[-1]

    tgt_n = np.empty((b, 2))
    tgt_n[:, 0] = vn
    tgt_n[:, 1] = vf
    err_n = out_n - tgt_n
    err_f = out_f[:, 0] - vf
    sq_n = (err_n ** 2).sum(axis=0) / b          # per-target terms
    sq_f = float((err_f ** 2).sum() / b)
    var_n = near.quantizer.variance
    var_f = far.quantizer.variance
    losses = PairLosses(
        near=float(sq_n.sum()),
        far=sq_f,
        near_scaled=float(sq_n[0] / var_n + sq_n[1] / var_f),
        far_scaled=sq_f / var_f,
    )
    cache = (cache_n, cache_f, err_n, err_f, top, acts, factors, amp_n, amp_f, b,
             var_n, var_f)
    return losses, cache


def pair_backward(hidden: Mlp | None, near: ModemModel, far: ModemModel, cache):
    """Each user's gradients of its own scaled loss.

    Returns (g_hidden, (gw_n, gb_n, out_n), (gw_f, gb_f, out_f)):
    the stacked hidden layers' (gW, gb) lists (None without hidden
    layers), then per user the modulator weight and bias gradients and
    the (gW, gb) of its demodulator's output layer.
    """
    (cache_n, cache_f, err_n, err_f, top, acts, factors, amp_n, amp_f, b,
     var_n, var_f) = cache

    g_out_n = 2.0 * err_n / b
    g_out_n /= (var_n, var_f)
    g_out_f = 2.0 * err_f[:, None] / (b * var_f)

    g_top = np.empty_like(top)
    g_outs = []
    for model, g_out, t, g_t in zip((near, far), (g_out_n, g_out_f), top, g_top):
        g_outs.append((t.T @ g_out, g_out.sum(axis=0)))
        np.matmul(g_out, model.demod.W[-1].T, out=g_t)
    if hidden is None:
        g_hidden, g_in = None, g_top
    else:
        g_top *= top > 0
        g_hidden, g_in = hidden.backward(acts, g_top)
    g_eq = g_in[..., 0] + 1j * g_in[..., 1]

    grads = [g_hidden]
    for model, g, factor, amp, mod_cache, g_out in zip(
            (near, far), g_eq, factors, (amp_n, amp_f), (cache_n, cache_f), g_outs):
        g_s = amp * (factor.conjugate() * g)
        gw, gb = _live_norm_backward(model, g_s.view(np.float64).reshape(-1, 2), mod_cache)
        grads.append((gw, gb, g_out))
    return tuple(grads)


def _init_model(role: str, out_dim: int, hidden, q: QuantizerParams,
                rng: np.random.Generator) -> ModemModel:
    # draw order: modulator weights, modulator bias, then demod layers
    mod_w = rng.uniform(-1.0, 1.0, size=2)
    mod_b = rng.uniform(-1.0, 1.0, size=2)
    demod = Mlp([2, *hidden, out_dim], rng)
    return ModemModel(role, mod_w, mod_b, demod, q)


def composite_peak(near: ModemModel, far: ModemModel, amp_n: float, amp_f: float) -> float:
    """Largest |superimposed symbol| over both constellations."""
    s_n = tx_symbols(near.quantizer.constellation_deq, near)
    s_f = tx_symbols(far.quantizer.constellation_deq, far)
    grid = amp_n * s_n[:, None] + amp_f * s_f[None, :]
    return float(np.max(np.abs(grid)))


# a diverging run overflows before its loss turns non-finite; the loss check
# in the loop reports it as TrainingDivergedError instead of numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train_modem(cfg: ExperimentConfig, seed: int):
    """Alternating SGD over the superimposed link.

    Everything comes from cfg: both quantizers from cfg.quant, the
    amplitudes from cfg.link, the channel kind and CSI error from
    cfg.sweep and the loop's settings, the per-user training SNRs among
    them, from cfg.train; all randomness is keyed by seed.  One epoch is
    one shuffled pass over a fixed dataset of dataset_size uniform
    constellation draws in mini-batches of batch_size (trailing
    remainder dropped).

    Returns (near_model, far_model, trace) where trace[t] holds the
    epoch-mean (near, far) losses.
    """
    tc, qc = cfg.train, cfg.quant
    q_near = fit_quantizer(qc.bits_near, qc.bound_s, qc.bound_d)
    q_far = fit_quantizer(qc.bits_far, qc.bound_s, qc.bound_d)
    rng_n = _rng.stream_rng(seed, _rng.USER_NEAR, _rng.WEIGHT_INIT)
    rng_f = _rng.stream_rng(seed, _rng.USER_FAR, _rng.WEIGHT_INIT)
    near = _init_model(ROLE_NEAR, 2, tc.hidden, q_near, rng_n)
    far = _init_model(ROLE_FAR, 1, tc.hidden, q_far, rng_f)
    hidden = stack_hidden(near, far)

    data_rng = _rng.stream_rng(seed, 0, _rng.TRAIN_DATA)
    vn_all = data_rng.choice(q_near.constellation_deq, size=tc.dataset_size)
    vf_all = data_rng.choice(q_far.constellation_deq, size=tc.dataset_size)

    noise_rng = [_rng.stream_rng(seed, u, _rng.TRAIN_NOISE) for u in (0, 1)]
    fade_rng = [_rng.stream_rng(seed, u, _rng.TRAIN_FADING) for u in (0, 1)]
    sigma2 = [10.0 ** (-tc.snr_train_near_db / 10.0),
              10.0 ** (-tc.snr_train_far_db / 10.0)]

    amp_n, amp_f = cfg.link.amplitudes()
    batches = tc.dataset_size // tc.batch_size
    lr = tc.learning_rate
    trace = np.zeros((tc.epochs, 2))

    for epoch in range(tc.epochs):
        perm = data_rng.permutation(tc.dataset_size)[:batches * tc.batch_size]
        vn_ep = vn_all[perm].reshape(batches, tc.batch_size)
        vf_ep = vf_all[perm].reshape(batches, tc.batch_size)
        # equal to per-batch draws bit for bit: a Philox stream yields the same
        # sequence however it is split.  A batch's fading and error pairs
        # both come from the user's one training stream, in that order.
        draws = []
        for u in (0, 1):
            h, h_hat = coefficients(
                cfg.sweep.kind, cfg.sweep.estimation_error_delta,
                lambda p: fade_rng[u].standard_normal((batches, len(p), 2)), batches)
            noise = noise_rng[u].standard_normal((batches, tc.batch_size, 2)).view(complex)[..., 0]
            noise *= math.sqrt(sigma2[u] / 2.0)
            # Python complex scalars: numpy's h / h_hat rounds differently
            draws.append((h.tolist(), h_hat.tolist(), noise))
        loss_n = loss_f = 0.0
        for bi, (vn, vf) in enumerate(zip(vn_ep, vf_ep)):
            chans = [(h[bi], h_hat[bi], noise[bi]) for h, h_hat, noise in draws]
            losses, cache = pair_forward(hidden, near, far, vn, vf, amp_n, amp_f, *chans)
            if not (math.isfinite(losses.near) and math.isfinite(losses.far)):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            g_hidden, *g_users = pair_backward(hidden, near, far, cache)
            if hidden is not None:
                hidden.sgd_step(g_hidden, lr)
            for model, (gw, gb, (gW, gb_out)) in zip((near, far), g_users):
                model.mod_w -= lr * gw
                model.mod_b -= lr * gb
                model.demod.W[-1] -= lr * gW
                model.demod.b[-1] -= lr * gb_out
            loss_n += losses.near
            loss_f += losses.far
        trace[epoch] = (loss_n / batches, loss_f / batches)

    near.mean_power = mean_symbol_power(near)
    far.mean_power = mean_symbol_power(far)
    peak = composite_peak(near, far, amp_n, amp_f)
    radius = peak + _CLIP_SIGMAS * math.sqrt(max(sigma2))
    near.input_clip_radius = radius
    far.input_clip_radius = radius
    return near, far, trace


# ---------------------------------------------------------------------------
# model files

def save_model(model: ModemModel, path):
    """Write the model to a JSON file; loading restores it bit exactly."""
    if model.mean_power is None:
        raise ValueError("refusing to save a model without frozen mean power")
    # json.dumps rejects numpy integers; it writes every float (numpy's
    # float64 included) as its shortest round-trip repr, -0.0 as -0.0
    doc = {
        "format": _MODEL_FORMAT,
        "role": model.role,
        "widths": [int(w) for w in model.demod.widths],
        "weights": [W.ravel(order="C").tolist() for W in model.demod.W],
        "biases": [b.tolist() for b in model.demod.b],
        "modulator_weights": model.mod_w.tolist(),
        "modulator_biases": model.mod_b.tolist(),
        "mean_power": model.mean_power,
        "input_clip_radius": model.input_clip_radius,
        "quantizer": {"m": int(model.quantizer.bits_m),
                      "s": model.quantizer.bound_s,
                      "d": model.quantizer.bound_d},
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, allow_nan=False))  # non-finite values raise ValueError
        fh.write("\n")


def _field(doc, key, path, prefix=""):
    """doc[key], or a ValueError naming the model file and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: model file has no {prefix + key!r}")
    return doc[key]


def _numbers(value) -> bool:
    """True for a JSON number or nested lists of them; true and false are
    not numbers, though numpy would read them as 1.0 and 0.0."""
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, shape, key, path) -> np.ndarray:
    """value as a float array of the given shape with finite entries."""
    try:
        arr = np.asarray(value, dtype=float) if _numbers(value) else None
    except (ValueError, OverflowError):  # ragged lists, integers beyond float
        arr = None
    if arr is None or arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: {key!r} must hold finite numbers of shape {shape}")
    return arr


def load_model(path) -> ModemModel:
    """Read a model file written by save_model.

    Raises ValueError naming the file and the key when the file is not
    JSON, lacks a key, or holds weights of the wrong shape.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ValueError(f"not a modem model file: {path}")
    role = _field(doc, "role", path)
    if role not in (ROLE_NEAR, ROLE_FAR):
        raise ValueError(f"{path}: 'role' must be {ROLE_NEAR!r} or {ROLE_FAR!r}")
    widths = _field(doc, "widths", path)
    if (not isinstance(widths, list) or len(widths) < 2 or widths[0] != 2
            or not all(type(w) is int and w >= 1 for w in widths)):
        raise ValueError(f"{path}: 'widths' must be a list of positive integers "
                         "starting with 2")
    quant = _field(doc, "quantizer", path)
    m, s, d = (_field(quant, k, path, "quantizer.") for k in ("m", "s", "d"))
    if type(m) is not int:
        raise ValueError(f"{path}: 'quantizer.m' must be an integer")
    s, d = (float(_finite(v, (), f"quantizer.{k}", path)) for k, v in zip("sd", (s, d)))
    try:
        q = fit_quantizer(m, s, d)
    except ValueError as exc:
        raise ValueError(f"{path}: 'quantizer': {exc}") from None
    weights = _field(doc, "weights", path)
    biases = _field(doc, "biases", path)
    shapes = list(zip(widths[:-1], widths[1:]))
    for key, values in (("weights", weights), ("biases", biases)):
        if not isinstance(values, list) or len(values) != len(shapes):
            raise ValueError(f"{path}: {key!r} must hold one list per layer ({len(shapes)})")
    weights = [_finite(w, (n_in * n_out,), f"weights[{i}]", path).reshape(n_in, n_out)
               for i, (w, (n_in, n_out)) in enumerate(zip(weights, shapes))]
    biases = [_finite(b, (n_out,), f"biases[{i}]", path)
              for i, (b, (_, n_out)) in enumerate(zip(biases, shapes))]
    demod = Mlp(widths)
    demod.W, demod.b = weights, biases
    mean_power = float(_finite(_field(doc, "mean_power", path), (), "mean_power", path))
    if mean_power <= 0:
        raise ValueError(f"{path}: 'mean_power' must be positive")
    clip = _field(doc, "input_clip_radius", path)
    if clip is not None:
        clip = float(_finite(clip, (), "input_clip_radius", path))
        if clip <= 0:
            raise ValueError(f"{path}: 'input_clip_radius' must be positive or null")
    return ModemModel(
        role=role,
        mod_w=_finite(_field(doc, "modulator_weights", path), (2,), "modulator_weights", path),
        mod_b=_finite(_field(doc, "modulator_biases", path), (2,), "modulator_biases", path),
        demod=demod,
        quantizer=q,
        mean_power=mean_power,
        input_clip_radius=clip,
    )
