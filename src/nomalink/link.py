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
and QAM maps depend only on the scenario's bit widths and range, and
their transmit alphabets (each point's amplitude-scaled transmit symbol)
only on those, the power split and the model pair.  So a sweep builds
them once (build_constellations) and hands them to every run, which
gathers each symbol's transmit value and dequantized value from them.
A run's random inputs come from streams keyed by its cell (open_cell):
a sweep opens the next cell's streams and has a helper thread draw
their normals (CellDraws.fill) while it detects the current cell; a
run handed no draws opens and fills its own, through the same calls.

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
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .channel import ChannelSpec, equalize, realize, transmit
from .modem import (SUPERPOSE_SQRT, ModemModel, amplitudes, check_power_split,
                    demodulate, tx_symbols)
from .qam import QamMap, detect_far, make_qam, nearest_point, sic_detect
from .quant import FeatureVector, QuantizerParams, fit_quantizer, quantize

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
    """Both users' quantizers and QAM maps, with their detection grids, and
    the transmit alphabets of each detector.

    tx_sic and tx_neural hold the (near, far) alphabets: entry i is the
    user's amplitude-scaled transmit symbol for quantizer index i, a *
    QAM point or a * tx_symbols(constellation[i], model).  amps is the
    power split's amplitude pair and models the model pair they were
    built for; without models there is no neural alphabet.
    """

    q_near: QuantizerParams
    q_far: QuantizerParams
    qam_near: QamMap
    qam_far: QamMap
    amps: tuple
    tx_sic: tuple = field(repr=False, compare=False)
    models: tuple | None = field(default=None, repr=False, compare=False)
    tx_neural: tuple | None = field(default=None, repr=False, compare=False)


def build_constellations(scenario: LinkScenario,
                         models: tuple[ModemModel, ModemModel] | None = None) -> Constellations:
    """The constellations and transmit alphabets a scenario's bit widths,
    range and power split fix, with the neural ones of the trained (near,
    far) models when given; the same for every SNR cell of a sweep."""
    s, d = scenario.bound_s, scenario.bound_d
    q_near, q_far = fit_quantizer(scenario.m_near, s, d), fit_quantizer(scenario.m_far, s, d)
    qam_near, qam_far = make_qam(scenario.m_near), make_qam(scenario.m_far)
    a_n, a_f = amplitudes(scenario.rho_near, scenario.rho_far, scenario.superposition)
    tx_neural = None
    if models is not None:
        models = tuple(models)
        for m, q in zip(models, (q_near, q_far)):
            if (m.quantizer.bits_m, m.quantizer.bound_s, m.quantizer.bound_d) != \
                    (q.bits_m, q.bound_s, q.bound_d):
                raise ValueError("model quantizer does not match the scenario")
        tx_neural = (a_n * tx_symbols(q_near.constellation_deq, models[0]),
                     a_f * tx_symbols(q_far.constellation_deq, models[1]))
    return Constellations(q_near, q_far, qam_near, qam_far, (a_n, a_f),
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
                    user: int = 0, block: int = 0,
                    z: np.ndarray | None = None) -> FeatureVector:
    """Synthetic encoder output: d + s * tanh(z), z standard normal.

    z is the n normals of the (seed, user, SOURCE, block) stream: drawn
    here, or given when drawn ahead (CellDraws.source[user]).
    """
    if z is None:
        z = _rng.stream_rng(seed, user, _rng.SOURCE, block).standard_normal(n)
    elif z.shape != (n,):
        raise ValueError(f"source normals must have shape ({n},)")
    return FeatureVector(bound_d + bound_s * np.tanh(z), bound_s, bound_d)


_USERS = (_rng.USER_NEAR, _rng.USER_FAR)


@dataclass(frozen=True)
class CellDraws:
    """The random inputs of one run, opened by open_cell.

    channels holds each user's (near, far) channel realization, noise[u]
    the (n, 2) standard normals of user u's noise and, for a sweep cell,
    source[u] the n normals of user u's features (None otherwise).  The
    buffers hold nothing until fill() draws into them.  cell records
    what the draws were opened for: (kind, delta, seed, block, near
    gain, far gain).
    """

    cell: tuple
    channels: tuple = field(repr=False)
    noise: np.ndarray = field(repr=False)
    source: np.ndarray | None = field(repr=False)
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


def open_cell(scenario: LinkScenario, n: int, kind: str = "awgn", delta: float = 0.0,
              seed: int = 0, block: int = 0, features: bool = False,
              out: tuple | None = None) -> CellDraws:
    """Make one run's streams and channel realizations, without drawing
    their normals (see CellDraws).

    With features, the draws include each user's source normals for
    sample_features.  out is a (noise, source) pair of buffers of shapes
    (2, n, 2) and (2, n) to draw into, which a sweep reuses from cell to
    cell; new ones are made when it is None.  This calls stream_rng and
    realize, so it runs on the caller's thread.
    """
    noise, source = out or (np.empty((2, n, 2)), np.empty((2, n)) if features else None)
    if noise.shape != (2, n, 2) or (features and source.shape != (2, n)):
        raise ValueError(f"draw buffers must have shapes (2, {n}, 2) and (2, {n})")
    gains = (scenario.gain_near_db, scenario.gain_far_db)
    channels = tuple(
        realize(ChannelSpec(kind=kind, snr_db=gain, estimation_error_delta=delta, seed=seed),
                user=user, block=block)
        for user, gain in zip(_USERS, gains))
    streams = [(real._noise_rng, buf) for real, buf in zip(channels, noise)]
    if features:
        streams += [(_rng.stream_rng(seed, user, _rng.SOURCE, block), buf)
                    for user, buf in zip(_USERS, source)]
    return CellDraws((kind, delta, seed, block, *gains), channels, noise,
                     source if features else None, tuple(streams))


def superpose(s_near, s_far, a_n: float, a_f: float) -> np.ndarray:
    """Sum of the two users' normalized symbol streams with amplitudes
    (a_n, a_f) from modem.amplitudes; run_link gathers the same sums from
    the transmit alphabets."""
    return a_n * np.asarray(s_near) + a_f * np.asarray(s_far)


def _clamp_to_hull(est: np.ndarray, constellation: np.ndarray) -> np.ndarray:
    # a quantizer's constellation is sorted: its ends are its extremes
    return np.clip(est, constellation[0], constellation[-1])


def run_link(scenario: LinkScenario, vec_near: FeatureVector, vec_far: FeatureVector,
             models: tuple[ModemModel, ModemModel] | None = None,
             detectors: tuple[str, ...] = (DETECTOR_NEURAL,),
             kind: str = "awgn", delta: float = 0.0,
             seed: int = 0, block: int = 0,
             constellations: Constellations | None = None,
             draws: CellDraws | None = None) -> tuple[LinkReport, ...]:
    """Simulate one feature vector pair end to end, once per detector.

    Returns one LinkReport per entry of detectors, in order.  The
    detectors share one set-up: the quantized features, each user's
    channel realization and one noise draw per user, added to every
    detector's own transmit signal.  models is the trained (near, far)
    pair and is required for the neural detector; the SIC detector only
    needs the scenario.  constellations are build_constellations(scenario,
    models), built here when not given; ValueError if they were built for
    another scenario, power split or model pair.  Feature MSE is measured
    between the true dequantized values and the detected estimates (neural
    estimates are clamped to the constellation hull), SER between true and
    detected quantizer indices.  draws are the channel realizations and
    noise normals, open_cell(scenario, n, kind, delta, seed, block)
    filled; a sweep passes the ones its helper thread drew, and a run
    given none opens and fills its own.  ValueError if they were opened
    for another cell.
    """
    if len(vec_near) != len(vec_far):
        raise ValueError("both users must send the same number of symbols")
    if not detectors:
        raise ValueError("at least one detector is needed")
    for det in detectors:
        if det not in (DETECTOR_NEURAL, DETECTOR_SIC):
            raise ValueError(f"unknown detector {det!r}")
    neural = DETECTOR_NEURAL in detectors
    if neural and models is None:
        raise ValueError("neural detection needs a trained model pair")
    books = constellations or build_constellations(scenario, models if neural else None)
    q_near, q_far = books.q_near, books.q_far
    for q, qmap, m in ((q_near, books.qam_near, scenario.m_near),
                       (q_far, books.qam_far, scenario.m_far)):
        if (q.bits_m, qmap.bits_m, q.bound_s, q.bound_d) != \
                (m, m, scenario.bound_s, scenario.bound_d):
            raise ValueError("constellations do not match the scenario")
    if books.amps != amplitudes(scenario.rho_near, scenario.rho_far, scenario.superposition):
        raise ValueError("constellations were built for another power split")
    if neural and (books.models is None
                   or not all(a is b for a, b in zip(books.models, models))):
        raise ValueError("constellations were built for another model pair")
    idx_n = quantize(vec_near, q_near)
    idx_f = quantize(vec_far, q_far)
    # gathered from the alphabets: bit for bit what dequantizing, modulating
    # and superposing each symbol gives
    v_n = q_near.constellation_deq[idx_n]
    v_f = q_far.constellation_deq[idx_f]
    # one row per detector, all rows under the same noise draw
    x = np.empty((len(detectors), len(v_n)), dtype=complex)
    for row, det in zip(x, detectors):
        t_n, t_f = books.tx_neural if det == DETECTOR_NEURAL else books.tx_sic
        np.add(t_n[idx_n], t_f[idx_f], out=row)

    if draws is None:
        draws = open_cell(scenario, len(v_n), kind, delta, seed, block).fill()
    elif draws.cell != (kind, delta, seed, block, scenario.gain_near_db,
                        scenario.gain_far_db) or draws.noise.shape[1] != len(v_n):
        raise ValueError("draws were opened for another cell")
    eq = [equalize(transmit(x, real, normals), real)
          for real, normals in zip(draws.channels, draws.noise)]

    snr_n, snr_f = effective_snrs_db(scenario)
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
            det_idx_n, _ = sic_detect(eq_near_rx, books.qam_near, books.qam_far,
                                      scenario.rho_near, scenario.rho_far,
                                      scenario.superposition)
            det_idx_f = detect_far(eq_far_rx, books.qam_far, scenario.rho_near,
                                   scenario.rho_far, scenario.superposition)
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
