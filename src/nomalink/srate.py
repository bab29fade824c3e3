"""Semantic rate model: accuracy-vs-SNR curves and per-source rates.

Task accuracy as a function of the effective linear SNR gamma is modeled
by a generalized logistic

    xi(gamma) = a1 + (a2 - a1) / (1 + exp(-(c1 * gamma + c2)))

with floor a1, ceiling a2 and slope c1 > 0.  The semantic rate of a
source is the accuracy times a units prefactor, read from the config's
region section by the region curves (regions):

    text  : (bandwidth_hz / text_k_symbols) * xi
    image : (bandwidth_hz / image_compression) * xi

where bandwidth_hz is the occupied bandwidth W, text_k_symbols the
average symbols per word and image_compression the compression ratio,
so rates come out in units of semantic content per item.  Accuracy
samples can be ingested from two-column CSVs (gamma_db, accuracy) and
fitted by least squares with deterministic Levenberg-Marquardt on all
four parameters, started from a logit-linearized slope pair and the
levels projected onto it.  Without a CSV the region curves take the
shipped ground-truth curves TRUE_TEXT_CURVE and TRUE_IMAGE_CURVE as
given; synthetic_accuracy_samples evaluates those same curves, for
tests and for benchmark inputs.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

KIND_TEXT = "text"
KIND_IMAGE = "image"

FIT_MAX_ITERS = 5000
# the fit also stops when its last FIT_STALL_ITERS iterations together
# lowered the sum of squares by less than FIT_STALL_TOL relative: a
# windowed form of the usual relative cost-reduction test.  No fit that
# converges within the window can stop by it (every fit of the shipped
# samples, clean or with 1% noise at seeds 0-5,999, converges within 60
# iterations).  The window is long because a flat stretch does not show
# whether the fit is stuck: the text samples plus a row at 100 dB and
# accuracy 0.1 gain about 2.5e-9 per 1,000 iterations until the cap, while
# rows at -100, -10, 0, 5, 10 and 100 dB gain about 1e-10 per 100 for 750
# iterations and then lower the cost twentyfold
FIT_STALL_ITERS = 1000
FIT_STALL_TOL = 1e-8
FIT_DAMPING_START = 1e-3
FIT_RESIDUAL_WARN = 0.05
DEGENERATE_SPAN = 1e-9
# accuracy CSV rows lie within this many dB of 0 dB; a row beyond it is a
# units or typing error (at 3,000 dB the fit's Jacobian overflows)
GAMMA_DB_LIMIT = 100.0


@dataclass(frozen=True)
class AccuracyModel:
    """Generalized logistic accuracy curve over linear SNR."""

    a1: float
    a2: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.a2 > self.a1):
            raise ValueError("accuracy ceiling must exceed the floor")


def xi_eval(model: AccuracyModel, gamma) -> np.ndarray | float:
    """Accuracy at linear SNR gamma (scalar or array)."""
    g = np.asarray(gamma, dtype=float)
    z = model.c1 * g + model.c2
    out = model.a1 + (model.a2 - model.a1) / (1.0 + np.exp(-z))
    return float(out) if out.ndim == 0 else out


def gamma_required(model: AccuracyModel, target) -> np.ndarray | float:
    """Linear SNR at which the model reaches the target accuracy, the
    inverse of xi_eval on the open range (a1, a2), extended to the whole
    line for feasibility arithmetic.

    Targets at or below the floor need no SNR (-inf), targets at or
    above the ceiling are unreachable (+inf).  Scalar or array targets;
    a NaN target gives NaN.
    """
    t = np.asarray(target, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # odds taken from the two gaps directly: a2 - t > 0 for any t < a2,
        # where 1 - (t - a1) / (a2 - a1) can round to 0 just below the ceiling
        inner = (np.log((t - model.a1) / (model.a2 - t)) - model.c2) / model.c1
    out = np.where(t <= model.a1, -np.inf, np.where(t >= model.a2, np.inf, inner))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# fitting

@dataclass(frozen=True)
class FitResult:
    model: AccuracyModel
    residual_rms: float
    iterations: int
    warning: str | None = None


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp overflow saturates to sigma = 0
        return 1.0 / (1.0 + np.exp(-z))


def _project_linear(gamma: np.ndarray, acc: np.ndarray, c1: float, c2: float):
    """Best (a1, a2) for fixed slope via linear least squares."""
    sig = _sigmoid(c1 * gamma + c2)
    design = np.stack([1.0 - sig, sig], axis=1)
    coef, *_ = np.linalg.lstsq(design, acc, rcond=None)
    return coef[0], coef[1]


def _residual_and_jacobian(p: np.ndarray, gamma: np.ndarray, acc: np.ndarray):
    """Residuals xi(gamma) - acc and their derivatives in (a1, a2, c1, c2)."""
    a1, a2, c1, c2 = p
    sig = _sigmoid(c1 * gamma + c2)
    slope = (a2 - a1) * sig * (1.0 - sig)
    jac = np.stack([1.0 - sig, sig, slope * gamma, slope], axis=1)
    return a1 + (a2 - a1) * sig - acc, jac


def fit_logistic(samples) -> FitResult:
    """Least-squares generalized logistic fit.

    Levenberg-Marquardt on (a1, a2, c1, c2) with the analytic Jacobian,
    from a logit-linearized slope pair and the accuracy levels projected
    onto it.  A step is taken only if it lowers the sum of squares; the
    fit ends when no damping gives a step that moves the parameters, or
    when FIT_STALL_ITERS iterations in a row lowered the sum of squares by
    less than FIT_STALL_TOL relative (warned as stalled unless a graver
    warning applies).
    Degenerate (constant) inputs are flagged with a warning instead of
    an error.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (gamma, accuracy) samples")
    if not np.all(np.isfinite(pts)):
        raise ValueError("accuracy samples must be finite (no nan or inf)")
    gamma, acc = pts[:, 0], pts[:, 1]
    if np.any((acc < 0) | (acc > 1)):
        raise ValueError("accuracies must lie in [0, 1]")

    span = acc.max() - acc.min()
    if span < DEGENERATE_SPAN:
        lvl = float(acc.mean())
        model = AccuracyModel(lvl - 1e-9, lvl + 1e-9, 1.0, 0.0)
        return FitResult(model, 0.0, 0, warning="degenerate fit: constant accuracy, a1 == a2")

    # logit-linearized start for the slope parameters
    lo = acc.min() - 0.05 * span
    hi = acc.max() + 0.05 * span
    z = np.log((acc - lo) / (hi - acc))
    design = np.stack([gamma, np.ones_like(gamma)], axis=1)
    (c1, c2), *_ = np.linalg.lstsq(design, z, rcond=None)

    p = np.array([*_project_linear(gamma, acc, c1, c2), c1, c2])
    resid, jac = _residual_and_jacobian(p, gamma, acc)
    f = float(resid @ resid)
    damping = FIT_DAMPING_START
    f_mark, stalled = f, False
    iters = 0
    for iters in range(1, FIT_MAX_ITERS + 1):
        jtj = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(jtj), np.finfo(float).tiny))
        try:
            step = np.linalg.solve(jtj + damping * scale, -(jac.T @ resid))
        except np.linalg.LinAlgError:
            # singular in floating point: with every sample on a saturated
            # flank the slope columns of J are tiny and parallel, and more
            # damping makes the system regular again
            damping *= 10.0
        else:
            cand = p + step
            if np.array_equal(cand, p):
                break  # the step no longer moves the parameters: converged
            r_c, j_c = _residual_and_jacobian(cand, gamma, acc)
            f_c = float(r_c @ r_c)
            if f_c < f:
                p, resid, jac, f = cand, r_c, j_c, f_c
                damping /= 3.0
            else:
                damping *= 10.0
        if iters % FIT_STALL_ITERS == 0:
            if f_mark - f <= FIT_STALL_TOL * f_mark:
                stalled = True
                break
            f_mark = f

    a1, a2, c1, c2 = (float(v) for v in p)
    warning = None
    if a2 <= a1:
        a1, a2 = min(a1, a2) - 1e-9, max(a1, a2) + 1e-9
        warning = "ill-ordered levels straightened"
    if c1 <= 0:
        warning = "non-increasing fit (c1 <= 0)"
    rms = math.sqrt(f / len(acc))
    if rms > FIT_RESIDUAL_WARN and warning is None:
        warning = f"poor fit: residual rms {rms:.3g}"
    if stalled and warning is None:
        warning = (f"stalled: the last {FIT_STALL_ITERS} iterations lowered the "
                   f"sum of squares by less than {FIT_STALL_TOL:g} relative")
    return FitResult(AccuracyModel(a1, a2, c1, c2), rms, iters, warning)


# ---------------------------------------------------------------------------
# sample curves and CSV ingestion

def load_accuracy_csv(path) -> np.ndarray:
    """Read (gamma_db, accuracy) rows; returns (gamma_linear, accuracy) pairs.

    The header row naming the two columns is required; a UTF-8 byte-order
    mark before it, as spreadsheet exports often write, is skipped.  gamma
    is converted from dB to linear scale.  A malformed data row, or a finite gamma_db
    beyond +-GAMMA_DB_LIMIT, raises ValueError naming the file and the
    line; non-finite values are left to fit_logistic, which rejects them.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a UTF-8 text file ({exc})") from None
    if not lines:
        raise ValueError(f"empty accuracy CSV: {path}")
    header = next(csv.reader([lines[0][1]]), [])
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["gamma_db", "accuracy"]:
        raise ValueError(f"{path}: expected header 'gamma_db,accuracy', got {header!r}")
    rows = []
    for n, line in lines[1:]:
        row = next(csv.reader([line]), [])
        if not "".join(row).strip():
            continue
        if len(row) < 2:
            raise ValueError(f"{path}:{n}: expected two columns, got {row!r}")
        try:
            gamma_db, acc = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        if math.isfinite(gamma_db) and abs(gamma_db) > GAMMA_DB_LIMIT:
            raise ValueError(f"{path}:{n}: gamma_db {gamma_db:g} outside "
                             f"[-{GAMMA_DB_LIMIT:g}, {GAMMA_DB_LIMIT:g}] dB")
        rows.append((10.0 ** (gamma_db / 10.0), acc))
    if not rows:
        raise ValueError(f"no data rows in accuracy CSV: {path}")
    return np.asarray(rows)


# ground-truth curves: the accuracy models of regions without a CSV, and
# the curves behind the synthetic samples.  The text curve saturates
# slowly with SNR, the image curve earlier and more sharply
TRUE_TEXT_CURVE = AccuracyModel(a1=0.10, a2=0.95, c1=0.5, c2=-1.5)
TRUE_IMAGE_CURVE = AccuracyModel(a1=0.05, a2=0.90, c1=3.0, c2=-0.5)
TRUE_CURVES = {KIND_TEXT: TRUE_TEXT_CURVE, KIND_IMAGE: TRUE_IMAGE_CURVE}


def synthetic_accuracy_samples(kind: str, n: int = 40, noise: float = 0.0,
                               seed: int = 0) -> np.ndarray:
    """(gamma, accuracy) samples from the shipped ground-truth curves.

    gamma is linear, log-spaced over [-12, 18] dB.  Optional additive
    noise is seeded and clipped back into [0, 1].
    """
    if kind not in TRUE_CURVES:
        raise ValueError(f"unknown source kind {kind!r}")
    model = TRUE_CURVES[kind]
    gamma = 10.0 ** (np.linspace(-12.0, 18.0, n) / 10.0)
    acc = xi_eval(model, gamma)
    if noise > 0:
        g = np.random.Generator(np.random.Philox(key=seed))
        acc = np.clip(acc + noise * g.standard_normal(n), 0.0, 1.0)
    return np.stack([gamma, acc], axis=1)


def write_accuracy_csv(path, samples: np.ndarray):
    """Write (gamma_linear, accuracy) samples in the ingestion format."""
    with open(path, "w", newline="\n") as fh:
        fh.write("gamma_db,accuracy\n")
        for gamma, acc in samples:
            fh.write(f"{10.0 * math.log10(gamma):.10g},{acc:.10g}\n")
