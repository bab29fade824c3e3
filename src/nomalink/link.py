"""End-to-end two-user downlink simulation.

One run is one cell of a sweep: it draws a feature vector per user,
quantizes both, superimposes the per-user transmit symbols with the
configured power split, pushes the composite through each user's own
channel and detects at both receivers, with the trained neural
demodulators, the QAM + SIC baseline, or both.  Block fading: one
channel draw per cell per user.  The detectors of one run share
everything but their transmit signals: the quantized features, each
user's fading block and one noise draw per user, so a run with
both detectors reports exactly what one run per detector would, at one
channel pass.  Both users' quantizers and QAM maps depend only on the
config's bit widths and range, and their transmit alphabets (each
point's amplitude-scaled transmit symbol) only on those, the power
split and the model pair.  So a sweep builds them once from the
experiment config (build_constellations) and hands them to every run,
which gathers each symbol's transmit value and dequantized value from
them.  A run's random inputs come from streams keyed by its cell
(open_cell): a sweep opens the next cell's streams and has a helper
thread draw their normals (CellDraws.fill) while it detects the current
cell.

SNR bookkeeping: each user's channel gain in dB is its receive SNR for a
unit power transmit signal, and the per-user effective SNRs after the
power split follow in closed form from the superposition amplitudes a
(near decodes after removing the far signal, far treats the near signal
as noise):

    gamma_near = a_near**2 * g_near
    gamma_far  = a_far**2 * g_far / (a_near**2 * g_far + 1)

with g the linear channel gain; a**2 is rho under the sqrt convention
(unit power composite) and rho**2 under the literal one.  Power ceiling
and bandwidth belong to the region analysis (the config's region
section, which regions reads), not to the link.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .channel import equalize, realize, transmit
from .config import SUPERPOSE_SQRT, ExperimentConfig, LinkSection
from .modem import ModemModel, demodulate, tx_symbols
from .qam import QamMap, detect_far, make_qam, nearest_point, sic_detect
from .quant import QuantizerParams, fit_quantizer, quantize

DETECTOR_NEURAL = "neural"
DETECTOR_SIC = "sic"


@dataclass(frozen=True)
class Constellations:
    """Both users' quantizers and QAM maps, with their detection grids, and
    the transmit alphabets of each detector.

    tx_sic and tx_neural hold the (near, far) alphabets: entry i is the
    user's amplitude-scaled transmit symbol for quantizer index i, a *
    QAM point or a * tx_symbols(constellation[i], model).  link is the
    config's power split and convention, whose amplitudes SIC detection
    takes (LinkSection.amplitudes), and models the trained (near, far)
    pair; without models there is no neural alphabet.
    """

    q_near: QuantizerParams
    q_far: QuantizerParams
    qam_near: QamMap
    qam_far: QamMap
    link: LinkSection
    tx_sic: tuple = field(repr=False, compare=False)
    models: tuple | None = field(default=None, repr=False, compare=False)
    tx_neural: tuple | None = field(default=None, repr=False, compare=False)


def build_constellations(cfg: ExperimentConfig,
                         models: tuple[ModemModel, ModemModel] | None = None) -> Constellations:
    """The constellations and transmit alphabets the config's bit widths,
    range and power split fix, with the neural ones of the trained (near,
    far) models when given; the same for every SNR cell of a sweep.
    ValueError if a model was trained for another quantizer."""
    quant, link = cfg.quant, cfg.link
    s, d = quant.bound_s, quant.bound_d
    q_near, q_far = fit_quantizer(quant.bits_near, s, d), fit_quantizer(quant.bits_far, s, d)
    qam_near, qam_far = make_qam(quant.bits_near), make_qam(quant.bits_far)
    a_n, a_f = link.amplitudes()
    tx_neural = None
    if models is not None:
        models = tuple(models)
        for m, q in zip(models, (q_near, q_far)):
            if (m.quantizer.bits_m, m.quantizer.bound_s, m.quantizer.bound_d) != \
                    (q.bits_m, q.bound_s, q.bound_d):
                raise ValueError("model quantizer does not match the config")
        tx_neural = (a_n * tx_symbols(q_near.constellation_deq, models[0]),
                     a_f * tx_symbols(q_far.constellation_deq, models[1]))
    return Constellations(q_near, q_far, qam_near, qam_far, link,
                          (a_n * qam_near.points, a_f * qam_far.points), models, tx_neural)


@dataclass(frozen=True)
class LinkReport:
    """Per-user error figures of one simulated run."""

    detector: str
    n_symbols: int
    mse_near: float
    mse_far: float
    ser_near: float
    ser_far: float
    snr_eff_near_db: float
    snr_eff_far_db: float


def effective_snrs_db(link: LinkSection, gain_near_db: float,
                      gain_far_db: float) -> tuple[float, float]:
    """Closed-form post-split SNRs (near after SIC, far under interference)
    of the split and convention of link at these channel gains."""
    g_n = 10.0 ** (gain_near_db / 10.0)
    g_f = 10.0 ** (gain_far_db / 10.0)
    a_n, a_f = link.amplitudes()
    # sqrt powers are the shares themselves: squaring sqrt(rho) can move the last bit
    p_n, p_f = ((link.rho_near, link.rho_far) if link.superposition == SUPERPOSE_SQRT
                else (a_n * a_n, a_f * a_f))
    gamma_n = p_n * g_n
    gamma_f = p_f * g_f / (p_n * g_f + 1.0)
    return 10.0 * math.log10(gamma_n), 10.0 * math.log10(gamma_f)


def sample_features(z: np.ndarray, bound_s: float, bound_d: float) -> np.ndarray:
    """Synthetic encoder output d + s * tanh(z) of standard normals z, a
    user's source normals (CellDraws.source[user]); in [-s + d, s + d]
    by construction, which quantize checks."""
    return bound_d + bound_s * np.tanh(z)


_USERS = (_rng.USER_NEAR, _rng.USER_FAR)


@dataclass(frozen=True)
class CellDraws:
    """The random inputs of one run, opened by open_cell.

    gains_db is the cell's (near, far) channel gain pair, channels[u]
    user u's fading block and noise power (h, h_hat, sigma2), noise[u]
    the (n, 2) standard normals of user u's noise and source[u] the n
    normals of user u's features.  The buffers hold nothing until fill()
    draws into them.
    """

    gains_db: tuple
    channels: tuple = field(repr=False)
    noise: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    _streams: tuple = field(repr=False)  # (generator, buffer) pairs

    def fill(self) -> "CellDraws":
        """Draw every buffer's normals: what standard_normal(shape) on its
        generator returns, bit for bit.  This calls nothing but
        Generator.standard_normal on generators open_cell made, and
        numpy draws without holding the GIL, so a sweep fills the next
        cell on a helper thread while it detects the current one."""
        for gen, out in self._streams:
            gen.standard_normal(out=out)
        return self


def open_cell(gains_db: tuple[float, float], n: int, kind: str = "awgn", delta: float = 0.0,
              seed: int = 0, block: int = 0, out: tuple | None = None) -> CellDraws:
    """Make the streams and fading blocks of one run of n symbols a user at
    the (near, far) channel gains gains_db, without drawing their normals
    (see CellDraws).  A gain g in dB gives the noise power 10**(-g / 10)
    against a unit power transmit signal.

    out is a (noise, source) pair of buffers of shapes (2, n, 2) and
    (2, n) to draw into, which a sweep reuses from cell to cell; new ones
    are made when it is None.  This calls stream_rng and realize, so it
    runs on the caller's thread.
    """
    noise, source = out or (np.empty((2, n, 2)), np.empty((2, n)))
    if noise.shape != (2, n, 2) or source.shape != (2, n):
        raise ValueError(f"draw buffers must have shapes (2, {n}, 2) and (2, {n})")
    channels = tuple((*realize(kind, delta, seed, user, block), 10.0 ** (-gain / 10.0))
                     for user, gain in zip(_USERS, gains_db))
    streams = []
    for user, noise_buf, source_buf in zip(_USERS, noise, source):
        streams += [(_rng.stream_rng(seed, user, _rng.NOISE, block), noise_buf),
                    (_rng.stream_rng(seed, user, _rng.SOURCE, block), source_buf)]
    return CellDraws(tuple(gains_db), channels, noise, source, tuple(streams))


def _clamp_to_hull(est: np.ndarray, constellation: np.ndarray) -> np.ndarray:
    # a quantizer's constellation is sorted: its ends are its extremes
    return np.clip(est, constellation[0], constellation[-1])


def run_link(books: Constellations, draws: CellDraws,
             detectors: tuple[str, ...]) -> tuple[LinkReport, ...]:
    """Simulate one cell end to end, once per detector.

    Returns one LinkReport per entry of detectors, in order.  books are
    build_constellations(cfg, models) and draws the cell's filled
    open_cell draws.  Each user's features are sample_features of its
    source normals.  The detectors share one set-up: the quantized
    features, each user's fading block and one noise draw per
    user, added to every detector's own transmit signal.  The neural
    detector needs books built with the trained model pair.  Feature MSE
    is measured between the true dequantized values and the detected
    estimates (neural estimates are clamped to the constellation hull),
    SER between true and detected quantizer indices.
    """
    if not detectors:
        raise ValueError("at least one detector is needed")
    for det in detectors:
        if det not in (DETECTOR_NEURAL, DETECTOR_SIC):
            raise ValueError(f"unknown detector {det!r}")
    models, link = books.models, books.link
    a_n, a_f = link.amplitudes()
    if DETECTOR_NEURAL in detectors and models is None:
        raise ValueError("neural detection needs a trained model pair")
    q_near, q_far = books.q_near, books.q_far
    x_near, x_far = (sample_features(z, q.bound_s, q.bound_d)
                     for z, q in zip(draws.source, (q_near, q_far)))
    idx_n = quantize(x_near, q_near)
    idx_f = quantize(x_far, q_far)
    # gathered from the alphabets: bit for bit what dequantizing, modulating
    # and superposing each symbol gives
    v_n = q_near.constellation_deq[idx_n]
    v_f = q_far.constellation_deq[idx_f]
    # one row per detector, all rows under the same noise draw
    x = np.empty((len(detectors), len(v_n)), dtype=complex)
    for row, det in zip(x, detectors):
        t_n, t_f = books.tx_neural if det == DETECTOR_NEURAL else books.tx_sic
        np.add(t_n[idx_n], t_f[idx_f], out=row)
    eq = [equalize(transmit(x, h, sigma2, normals), h_hat)
          for (h, h_hat, sigma2), normals in zip(draws.channels, draws.noise)]

    snr_n, snr_f = effective_snrs_db(link, *draws.gains_db)
    reports = []
    for det, eq_near_rx, eq_far_rx in zip(detectors, *eq):
        if det == DETECTOR_NEURAL:
            out_n = demodulate(eq_near_rx, models[0])
            out_f = demodulate(eq_far_rx, models[1])
            est_n = _clamp_to_hull(out_n[:, 0], q_near.constellation_deq)
            est_f = _clamp_to_hull(out_f[:, 0], q_far.constellation_deq)
            det_idx_n = nearest_point(out_n[:, 0], q_near.grid)
            det_idx_f = nearest_point(out_f[:, 0], q_far.grid)
        else:
            det_idx_n, _ = sic_detect(eq_near_rx, books.qam_near, books.qam_far, a_n, a_f)
            det_idx_f = detect_far(eq_far_rx, books.qam_far, a_f)
            est_n = q_near.constellation_deq[det_idx_n]
            est_f = q_far.constellation_deq[det_idx_f]
        reports.append(LinkReport(
            detector=det,
            n_symbols=len(v_n),
            mse_near=float(np.mean((est_n - v_n) ** 2)),
            mse_far=float(np.mean((est_f - v_f) ** 2)),
            # the count over n: what np.mean of the booleans gives, exactly
            ser_near=np.count_nonzero(det_idx_n != idx_n) / len(idx_n),
            ser_far=np.count_nonzero(det_idx_f != idx_f) / len(idx_f),
            snr_eff_near_db=snr_n,
            snr_eff_far_db=snr_f,
        ))
    return tuple(reports)
