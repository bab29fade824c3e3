"""End-to-end two-user downlink simulation.

One run takes a feature vector per user, quantizes both, superimposes
the per-user transmit symbols with the configured power split, pushes
the composite through each user's own channel and detects at both
receivers, with the trained neural demodulators, the QAM + SIC
baseline, or both.  Block fading: one channel draw per feature vector
per user.  The detectors of one run share everything but their transmit
signals: the quantized features, each user's channel realization and one
noise draw per user, so a run with both detectors reports exactly what
one run per detector would, at one channel pass.  Both users' quantizers
and QAM maps depend only on the scenario's bit widths and range, so a
sweep builds them once (build_constellations) and hands them to every
run.

SNR bookkeeping: each user's channel gain in dB is its receive SNR for a
unit power transmit signal, and the per-user effective SNRs after the
power split follow in closed form from the superposition amplitudes a
(near decodes after removing the far signal, far treats the near signal
as noise):

    gamma_near = a_near**2 * g_near
    gamma_far  = a_far**2 * g_far / (a_near**2 * g_far + 1)

with g the linear channel gain; a**2 is rho under the sqrt convention
(unit power composite) and rho**2 under the literal one.  Power ceiling
and bandwidth belong to the region analysis (regions.RegionQuery), not
to the link.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .channel import ChannelSpec, equalize, realize, transmit
from .modem import (SUPERPOSE_SQRT, ModemModel, amplitudes, check_power_split,
                    demodulate, tx_symbols)
from .qam import QamMap, detect_far, make_qam, nearest_point, qam_modulate, sic_detect
from .quant import FeatureVector, QuantizerParams, dequantize, fit_quantizer, quantize

DETECTOR_NEURAL = "neural"
DETECTOR_SIC = "sic"


@dataclass(frozen=True)
class LinkScenario:
    """Static parameters of the two-user downlink."""

    rho_near: float = 0.3
    rho_far: float = 0.7
    m_near: int = 2
    m_far: int = 2
    gain_near_db: float = 14.0
    gain_far_db: float = 6.0
    bound_s: float = 5.0
    bound_d: float = 1.0
    superposition: str = SUPERPOSE_SQRT

    def __post_init__(self):
        check_power_split(self.rho_near, self.rho_far, self.superposition)


@dataclass(frozen=True)
class Constellations:
    """Both users' quantizers and QAM maps, with their detection grids."""

    q_near: QuantizerParams
    q_far: QuantizerParams
    qam_near: QamMap
    qam_far: QamMap


def build_constellations(scenario: LinkScenario) -> Constellations:
    """The constellations a scenario's bit widths and range fix; the same
    for every SNR cell of a sweep."""
    s, d = scenario.bound_s, scenario.bound_d
    return Constellations(fit_quantizer(scenario.m_near, s, d),
                          fit_quantizer(scenario.m_far, s, d),
                          make_qam(scenario.m_near), make_qam(scenario.m_far))


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


def effective_snrs_db(scenario: LinkScenario) -> tuple[float, float]:
    """Closed-form post-split SNRs (near after SIC, far under interference)."""
    g_n = 10.0 ** (scenario.gain_near_db / 10.0)
    g_f = 10.0 ** (scenario.gain_far_db / 10.0)
    a_n, a_f = amplitudes(scenario.rho_near, scenario.rho_far, scenario.superposition)
    # sqrt powers are the shares themselves: squaring sqrt(rho) can move the last bit
    p_n, p_f = ((scenario.rho_near, scenario.rho_far) if scenario.superposition ==
                SUPERPOSE_SQRT else (a_n * a_n, a_f * a_f))
    gamma_n = p_n * g_n
    gamma_f = p_f * g_f / (p_n * g_f + 1.0)
    return 10.0 * math.log10(gamma_n), 10.0 * math.log10(gamma_f)


def sample_features(n: int, bound_s: float, bound_d: float, seed: int,
                    user: int = 0, block: int = 0) -> FeatureVector:
    """Synthetic encoder output: d + s * tanh(z), z standard normal."""
    g = _rng.stream_rng(seed, user, _rng.SOURCE, block)
    z = g.standard_normal(n)
    return FeatureVector(bound_d + bound_s * np.tanh(z), bound_s, bound_d)


def superpose(s_near, s_far, a_n: float, a_f: float) -> np.ndarray:
    """Sum of the two users' normalized symbol streams with amplitudes
    (a_n, a_f) from modem.amplitudes."""
    return a_n * np.asarray(s_near) + a_f * np.asarray(s_far)


def _clamp_to_hull(est: np.ndarray, constellation: np.ndarray) -> np.ndarray:
    return np.clip(est, constellation.min(), constellation.max())


def run_link(scenario: LinkScenario, vec_near: FeatureVector, vec_far: FeatureVector,
             models: tuple[ModemModel, ModemModel] | None = None,
             detectors: tuple[str, ...] = (DETECTOR_NEURAL,),
             kind: str = "awgn", delta: float = 0.0,
             seed: int = 0, block: int = 0,
             constellations: Constellations | None = None) -> tuple[LinkReport, ...]:
    """Simulate one feature vector pair end to end, once per detector.

    Returns one LinkReport per entry of detectors, in order.  The
    detectors share one set-up: the quantized features, each user's
    channel realization and one noise draw per user, added to every
    detector's own transmit signal.  models is the trained (near, far)
    pair and is required for the neural detector; the SIC detector only
    needs the scenario.  constellations are build_constellations(scenario),
    built here when not given.  Feature MSE is measured between the true
    dequantized values and the detected estimates (neural estimates are
    clamped to the constellation hull), SER between true and detected
    quantizer indices.
    """
    if len(vec_near) != len(vec_far):
        raise ValueError("both users must send the same number of symbols")
    if not detectors:
        raise ValueError("at least one detector is needed")
    for det in detectors:
        if det not in (DETECTOR_NEURAL, DETECTOR_SIC):
            raise ValueError(f"unknown detector {det!r}")
    if constellations is None:
        constellations = build_constellations(scenario)
    q_near, q_far = constellations.q_near, constellations.q_far
    qam_n, qam_f = constellations.qam_near, constellations.qam_far
    for q, qmap, m in ((q_near, qam_n, scenario.m_near), (q_far, qam_f, scenario.m_far)):
        if (q.bits_m, qmap.bits_m, q.bound_s, q.bound_d) != \
                (m, m, scenario.bound_s, scenario.bound_d):
            raise ValueError("constellations do not match the scenario")
    idx_n = quantize(vec_near, q_near)
    idx_f = quantize(vec_far, q_far)
    v_n = dequantize(idx_n, q_near)
    v_f = dequantize(idx_f, q_far)

    amps = amplitudes(scenario.rho_near, scenario.rho_far, scenario.superposition)
    tx = []
    for det in detectors:
        if det == DETECTOR_NEURAL:
            if models is None:
                raise ValueError("neural detection needs a trained model pair")
            near_m, far_m = models
            for m, q in ((near_m, q_near), (far_m, q_far)):
                if (m.quantizer.bits_m, m.quantizer.bound_s, m.quantizer.bound_d) != \
                        (q.bits_m, q.bound_s, q.bound_d):
                    raise ValueError("model quantizer does not match the scenario")
            s_n = tx_symbols(v_n, near_m)
            s_f = tx_symbols(v_f, far_m)
        else:
            s_n = qam_modulate(idx_n, qam_n)
            s_f = qam_modulate(idx_f, qam_f)
        tx.append(superpose(s_n, s_f, *amps))
    x = np.stack(tx)  # one row per detector, all rows under the same noise draw

    eq = []
    for user, gain in ((_rng.USER_NEAR, scenario.gain_near_db),
                       (_rng.USER_FAR, scenario.gain_far_db)):
        spec = ChannelSpec(kind=kind, snr_db=gain, estimation_error_delta=delta, seed=seed)
        real = realize(spec, user=user, block=block)
        eq.append(equalize(transmit(x, real), real))

    snr_n, snr_f = effective_snrs_db(scenario)
    reports = []
    for det, eq_near_rx, eq_far_rx in zip(detectors, *eq):
        if det == DETECTOR_NEURAL:
            out_n = demodulate(eq_near_rx, near_m)
            out_f = demodulate(eq_far_rx, far_m)
            est_n = _clamp_to_hull(out_n[:, 0], q_near.constellation_deq)
            est_f = _clamp_to_hull(out_f[:, 0], q_far.constellation_deq)
            det_idx_n = nearest_point(out_n[:, 0], q_near.grid)
            det_idx_f = nearest_point(out_f[:, 0], q_far.grid)
        else:
            det_idx_n, _ = sic_detect(eq_near_rx, qam_n, qam_f, scenario.rho_near,
                                      scenario.rho_far, scenario.superposition)
            det_idx_f = detect_far(eq_far_rx, qam_f, scenario.rho_near,
                                   scenario.rho_far, scenario.superposition)
            est_n = dequantize(det_idx_n, q_near)
            est_f = dequantize(det_idx_f, q_far)
        reports.append(LinkReport(
            detector=det,
            n_symbols=len(v_n),
            mse_near=float(np.mean((est_n - v_n) ** 2)),
            mse_far=float(np.mean((est_f - v_f) ** 2)),
            ser_near=float(np.mean(det_idx_n != idx_n)),
            ser_far=float(np.mean(det_idx_f != idx_f)),
            snr_eff_near_db=snr_n,
            snr_eff_far_db=snr_f,
        ))
    return tuple(reports)
