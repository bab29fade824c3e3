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
far network's only with the far loss.

Losses are squared Euclidean distances between true and estimated
dequantized features.  The gradient step normalizes each squared-error
term by the variance of that user's dequantized constellation, which
makes the optimization invariant to the arbitrary feature scale (the
same learning rate works for s = 5 and s = 0.5) and keeps plain SGD at
the default rate stable.  The recorded loss trace stays in raw
dequantized units.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .channel import KIND_AWGN, KIND_RAYLEIGH, ChannelSpec
from .nn import Mlp
from .quant import QuantizerParams, fit_quantizer

ROLE_NEAR = "near"
ROLE_FAR = "far"

SUPERPOSE_SQRT = "sqrt"      # amplitude sqrt(rho_i), composite has unit mean power
SUPERPOSE_LITERAL = "literal"  # amplitude rho_i

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

    @property
    def out_dim(self) -> int:
        return self.demod.widths[-1]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the alternating SGD loop."""

    epochs: int = 2000
    batch_size: int = 4
    learning_rate: float = 0.1
    dataset_size: int = 64
    snr_train_near_db: float = 14.0
    snr_train_far_db: float = 6.0
    rho_near: float = 0.3
    rho_far: float = 0.7
    hidden: tuple = (32, 32, 32)
    superposition: str = SUPERPOSE_SQRT
    noiseless: bool = False
    seed: int = 0

    def __post_init__(self):
        check_power_split(self.rho_near, self.rho_far, self.superposition)
        if self.learning_rate <= 0 or self.epochs < 1:
            raise ValueError("bad optimizer settings")
        if not (1 <= self.batch_size <= self.dataset_size):
            raise ValueError("batch_size must be in 1..dataset_size")


def check_power_split(rho_near: float, rho_far: float, convention: str):
    """Raise ValueError unless the shares and the superposition convention
    form a valid split: shares in (0, 1) summing to 1, the far (weak)
    user getting at least the near user's share."""
    if not (0 < rho_near < 1 and 0 < rho_far < 1):
        raise ValueError("power shares must lie in (0, 1)")
    if abs(rho_near + rho_far - 1.0) > 1e-12:
        raise ValueError("power shares must sum to 1")
    if rho_near > rho_far:
        raise ValueError("near (strong) user cannot get more power than far")
    if convention not in (SUPERPOSE_SQRT, SUPERPOSE_LITERAL):
        raise ValueError(f"unknown superposition convention {convention!r}")


def amplitudes(rho_near: float, rho_far: float, convention: str = SUPERPOSE_SQRT):
    """Per-user amplitude factors applied to the normalized symbols."""
    if convention == SUPERPOSE_SQRT:
        return math.sqrt(rho_near), math.sqrt(rho_far)
    if convention == SUPERPOSE_LITERAL:
        return rho_near, rho_far
    raise ValueError(f"unknown superposition convention {convention!r}")


def target_scale(q: QuantizerParams) -> float:
    """Std of the dequantized constellation under a uniform prior."""
    return float(np.std(q.constellation_deq))


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


def normalize_power(symbols: np.ndarray, mean_power: float) -> np.ndarray:
    """Scale symbols to unit mean power given their ensemble mean power."""
    if mean_power <= 0:
        raise ValueError("mean power must be positive")
    return np.asarray(symbols) / math.sqrt(mean_power)


def tx_symbols(v, model: ModemModel) -> np.ndarray:
    """Modulate and normalize with the model's frozen mean power."""
    if model.mean_power is None:
        raise ValueError("model has no frozen mean power (still training?)")
    return normalize_power(modulate(v, model), model.mean_power)


def demodulate(received, model: ModemModel) -> np.ndarray:
    """Estimate dequantized feature values from equalized receive samples.

    Returns an (n, out_dim) array; for a near model column 0 is the near
    feature estimate and column 1 the far one.
    """
    y = np.atleast_1d(np.asarray(received, dtype=complex))
    if model.input_clip_radius is not None:
        mag = np.abs(y)
        scale = np.where(mag > model.input_clip_radius, model.input_clip_radius / np.maximum(mag, 1e-300), 1.0)
        y = y * scale
    d = np.stack([y.real, y.imag], axis=1)
    return model.demod.infer(d)


def count_macs(model: ModemModel) -> int:
    """Multiply-accumulate operations for one symbol through mod + demod."""
    return 2 + model.demod.macs


# ---------------------------------------------------------------------------
# training

def _live_norm(model: ModemModel, v: np.ndarray):
    """Forward through modulator + live power normalizer, keeping the
    intermediates needed for backprop."""
    raw = v[:, None] * model.mod_w + model.mod_b            # (B, 2)
    cpts = model.quantizer.constellation_deq
    raw_c = cpts[:, None] * model.mod_w + model.mod_b        # (M, 2)
    pbar = float(np.mean(np.sum(raw_c**2, axis=1)))
    norm = raw / math.sqrt(pbar)
    return norm, (v, raw, raw_c, pbar, norm)


def _live_norm_backward(model: ModemModel, g_norm: np.ndarray, cache):
    """Accumulate modulator gradients for the live-normalized forward."""
    v, raw, raw_c, pbar, norm = cache
    g_raw = g_norm / math.sqrt(pbar)
    # d norm / d pbar = -raw / (2 pbar^{3/2}) = -norm / (2 pbar)
    g_pbar = -float(np.sum(g_norm * norm)) / (2.0 * pbar)
    m = raw_c.shape[0]
    cpts = model.quantizer.constellation_deq
    dp_dw = (2.0 / m) * np.sum(raw_c * cpts[:, None], axis=0)  # (2,)
    dp_db = (2.0 / m) * np.sum(raw_c, axis=0)
    gw = np.sum(g_raw * v[:, None], axis=0) + g_pbar * dp_dw
    gb = np.sum(g_raw, axis=0) + g_pbar * dp_db
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


def pair_forward(near: ModemModel, far: ModemModel, vn, vf, amp_n, amp_f,
                 chan_n, chan_f):
    """Both users' losses for one batch with fixed channel draws.

    chan_* is a (h, h_hat, noise_array) triple for that user's receiver.
    Returns (PairLosses, cache); pure apart from the forward caches
    stored in the demodulator layers.
    """
    norm_n, cache_n = _live_norm(near, vn)
    norm_f, cache_f = _live_norm(far, vf)
    s_n = norm_n[:, 0] + 1j * norm_n[:, 1]
    s_f = norm_f[:, 0] + 1j * norm_f[:, 1]
    x = amp_n * s_n + amp_f * s_f

    outs = []
    factors = []
    for model, (h, h_hat, noise) in ((near, chan_n), (far, chan_f)):
        eq = (h * x + noise) / h_hat
        d = np.stack([eq.real, eq.imag], axis=1)
        outs.append(model.demod.forward(d))
        factors.append(h / h_hat)
    out_n, out_f = outs

    b = len(vn)
    tgt_n = np.stack([vn, vf], axis=1)
    sq_n = np.sum((out_n - tgt_n) ** 2, axis=0) / b          # per-target terms
    sq_f = float(np.sum((out_f[:, 0] - vf) ** 2) / b)
    var_n = target_scale(near.quantizer) ** 2
    var_f = target_scale(far.quantizer) ** 2
    losses = PairLosses(
        near=float(sq_n.sum()),
        far=sq_f,
        near_scaled=float(sq_n[0] / var_n + sq_n[1] / var_f),
        far_scaled=sq_f / var_f,
    )
    cache = (cache_n, cache_f, out_n, out_f, tgt_n, factors, amp_n, amp_f, b, var_n, var_f)
    return losses, cache


def pair_backward(near: ModemModel, far: ModemModel, vf, cache):
    """Per-user gradients of each user's own scaled loss.

    Returns ((gw_n, gb_n), (gw_f, gb_f)); demodulator gradients are
    accumulated in place in the Mlp layers.
    """
    cache_n, cache_f, out_n, out_f, tgt_n, factors, amp_n, amp_f, b, var_n, var_f = cache

    g_out_n = 2.0 * (out_n - tgt_n) / b
    g_out_n[:, 0] /= var_n
    g_out_n[:, 1] /= var_f
    g_in_n = near.demod.backward(g_out_n)
    g_eq_n = g_in_n[:, 0] + 1j * g_in_n[:, 1]
    g_x_n = np.conj(factors[0]) * g_eq_n
    g_s_n = amp_n * g_x_n
    gw_n, gb_n = _live_norm_backward(near, np.stack([g_s_n.real, g_s_n.imag], axis=1), cache_n)

    g_out_f = np.zeros_like(out_f)
    g_out_f[:, 0] = 2.0 * (out_f[:, 0] - vf) / (b * var_f)
    g_in_f = far.demod.backward(g_out_f)
    g_eq_f = g_in_f[:, 0] + 1j * g_in_f[:, 1]
    g_x_f = np.conj(factors[1]) * g_eq_f
    g_s_f = amp_f * g_x_f
    gw_f, gb_f = _live_norm_backward(far, np.stack([g_s_f.real, g_s_f.imag], axis=1), cache_f)

    return (gw_n, gb_n), (gw_f, gb_f)


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
def train_modem(cfg: TrainConfig, q_near: QuantizerParams, q_far: QuantizerParams,
                channel: ChannelSpec = ChannelSpec()):
    """Alternating SGD over the superimposed link.

    Only channel.kind and channel.estimation_error_delta are taken from
    the channel argument; the per-user training SNRs come from cfg and
    all randomness is keyed by cfg.seed.  One epoch is one shuffled pass
    over a fixed dataset of dataset_size uniform constellation draws in
    mini-batches of batch_size (trailing remainder dropped).

    Returns (near_model, far_model, trace) where trace[t] holds the
    epoch-mean (near, far) losses.
    """
    rng_n = _rng.stream_rng(cfg.seed, _rng.USER_NEAR, _rng.WEIGHT_INIT)
    rng_f = _rng.stream_rng(cfg.seed, _rng.USER_FAR, _rng.WEIGHT_INIT)
    near = _init_model(ROLE_NEAR, 2, cfg.hidden, q_near, rng_n)
    far = _init_model(ROLE_FAR, 1, cfg.hidden, q_far, rng_f)

    data_rng = _rng.stream_rng(cfg.seed, 0, _rng.TRAIN_DATA)
    vn_all = data_rng.choice(q_near.constellation_deq, size=cfg.dataset_size)
    vf_all = data_rng.choice(q_far.constellation_deq, size=cfg.dataset_size)

    noise_rng = [_rng.stream_rng(cfg.seed, u, _rng.TRAIN_NOISE) for u in (0, 1)]
    fade_rng = [_rng.stream_rng(cfg.seed, u, _rng.TRAIN_FADING) for u in (0, 1)]
    sigma2 = [0.0, 0.0]
    if not cfg.noiseless:
        sigma2 = [10.0 ** (-cfg.snr_train_near_db / 10.0),
                  10.0 ** (-cfg.snr_train_far_db / 10.0)]

    amp_n, amp_f = amplitudes(cfg.rho_near, cfg.rho_far, cfg.superposition)
    batches = cfg.dataset_size // cfg.batch_size
    trace = np.zeros((cfg.epochs, 2))

    for epoch in range(cfg.epochs):
        perm = data_rng.permutation(cfg.dataset_size)
        ep_loss = np.zeros(2)
        for bi in range(batches):
            sel = perm[bi * cfg.batch_size:(bi + 1) * cfg.batch_size]
            vn, vf = vn_all[sel], vf_all[sel]
            chans = []
            for u in (0, 1):
                if channel.kind == KIND_RAYLEIGH:
                    re, im = fade_rng[u].standard_normal(2)
                    h = complex(re, im) / math.sqrt(2.0)
                else:
                    h = 1.0 + 0.0j
                if channel.estimation_error_delta > 0:
                    re, im = fade_rng[u].standard_normal(2)
                    h_hat = h + channel.estimation_error_delta * complex(re, im) / math.sqrt(2.0)
                else:
                    h_hat = h
                noise = noise_rng[u].standard_normal((cfg.batch_size, 2)).view(complex)[..., 0]
                noise *= math.sqrt(sigma2[u] / 2.0)
                chans.append((h, h_hat, noise))

            near.demod.zero_grad()
            far.demod.zero_grad()
            losses, cache = pair_forward(near, far, vn, vf, amp_n, amp_f, *chans)
            if not (math.isfinite(losses.near) and math.isfinite(losses.far)):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            (gw_n, gb_n), (gw_f, gb_f) = pair_backward(near, far, vf, cache)

            near.mod_w -= cfg.learning_rate * gw_n
            near.mod_b -= cfg.learning_rate * gb_n
            far.mod_w -= cfg.learning_rate * gw_f
            far.mod_b -= cfg.learning_rate * gb_f
            near.demod.sgd_step(cfg.learning_rate)
            far.demod.sgd_step(cfg.learning_rate)
            ep_loss += (losses.near, losses.far)
        trace[epoch] = ep_loss / batches

    near.mean_power = mean_symbol_power(near)
    far.mean_power = mean_symbol_power(far)
    peak = composite_peak(near, far, amp_n, amp_f)
    radius = peak + _CLIP_SIGMAS * math.sqrt(max(sigma2))
    near.input_clip_radius = radius
    far.input_clip_radius = radius
    return near, far, trace


# ---------------------------------------------------------------------------
# model files

def _emit_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("cannot serialize non-finite float")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_emit_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def save_model(model: ModemModel, path):
    """Write the model to a JSON file; loading restores it bit exactly."""
    if model.mean_power is None:
        raise ValueError("refusing to save a model without frozen mean power")
    denses = model.demod.dense_layers()
    doc = {
        "format": _MODEL_FORMAT,
        "role": model.role,
        "widths": model.demod.widths,
        "weights": [list(l.W.ravel(order="C")) for l in denses],
        "biases": [list(l.b) for l in denses],
        "modulator_weights": list(model.mod_w),
        "modulator_biases": list(model.mod_b),
        "mean_power": model.mean_power,
        "input_clip_radius": model.input_clip_radius,
        "quantizer": {"m": model.quantizer.bits_m,
                      "s": model.quantizer.bound_s,
                      "d": model.quantizer.bound_d},
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(_emit_json(doc))
        fh.write("\n")


def _field(doc, key, path, prefix=""):
    """doc[key], or a ValueError naming the model file and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: model file has no {prefix + key!r}")
    return doc[key]


def _finite(value, shape, key, path) -> np.ndarray:
    """value as a float array of the given shape with finite entries."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
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
        except json.JSONDecodeError as exc:
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
    demod = Mlp(widths, rng=None)
    for layer, w, b in zip(demod.dense_layers(), weights, biases):
        layer.W, layer.b = w, b
    mean_power = float(_finite(_field(doc, "mean_power", path), (), "mean_power", path))
    if mean_power <= 0:
        raise ValueError(f"{path}: 'mean_power' must be positive")
    clip = _field(doc, "input_clip_radius", path)
    return ModemModel(
        role=role,
        mod_w=_finite(_field(doc, "modulator_weights", path), (2,), "modulator_weights", path),
        mod_b=_finite(_field(doc, "modulator_biases", path), (2,), "modulator_biases", path),
        demod=demod,
        quantizer=q,
        mean_power=mean_power,
        input_clip_radius=None if clip is None else float(
            _finite(clip, (), "input_clip_radius", path)),
    )
