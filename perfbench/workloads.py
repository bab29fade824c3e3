"""The benchmark's workloads: inputs made from the seed, the CLI command
sequence of one pass, and the checks every command's outputs must pass.

Each check returns the work the command completed (symbols or region
points; training and macs count none) and raises CheckFailed when an
invariant breaks.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nomalink.config import config_hash, load_config
from nomalink.modem import count_macs, load_model
from nomalink.qam import sic_macs_per_symbol
from nomalink.srate import synthetic_accuracy_samples, write_accuracy_csv

# an eighth of the default 2,000 epochs: the cost of an SGD step does
# not depend on the epoch count, and training then stays a tenth of a
# pipeline pass, so the pass is not ruled by the interpreter-bound loop
TRAIN_EPOCHS = 250
# measurement-like accuracy samples for the fourth regions command
NOISY_ACCURACY_STD = 0.01
FIT_RMS_LIMIT = 0.05


class CheckFailed(Exception):
    """A command's outputs break one of the workload's invariants."""


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass and the check for what it writes."""

    label: str
    argv: list
    out: Path
    check: Callable  # check(out_dir, config, seed) -> work completed

    @property
    def config_path(self) -> str:
        return str(self.argv[self.argv.index("--config") + 1])


@dataclass(frozen=True)
class Plan:
    """What set-up produced: the configs used and the per-pass commands."""

    configs: dict  # file name -> config path
    steps: Callable  # steps(pass_dir) -> list[Step]

    def config_hashes(self):
        return {name: config_hash(load_config(str(p)))
                for name, p in self.configs.items()}


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _read_stamped_csv(path: Path, cfg, seed):
    """Rows of a CLI CSV after checking its config/seed stamp line."""
    with open(path, newline="") as fh:
        stamp = fh.readline().strip()
        want = f"# config_hash={config_hash(cfg)} seed={seed}"
        if stamp != want:
            raise CheckFailed(f"{path.name}: stamp {stamp!r}, expected {want!r}")
        return list(csv.DictReader(fh))


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# checks

def check_train(out: Path, cfg, seed) -> int:
    rows = _read_stamped_csv(out / "train_trace.csv", cfg, seed)
    _require(len(rows) == cfg.train.epochs,
             f"train_trace.csv has {len(rows)} epochs, expected {cfg.train.epochs}")
    losses = np.array([[float(r["loss_near"]), float(r["loss_far"])] for r in rows])
    _require(np.all(np.isfinite(losses)), "non-finite training loss")
    _require(np.all(losses[-1] < losses[0]),
             f"last epoch losses {losses[-1]} not below first {losses[0]}")
    for role in ("near", "far"):
        try:
            load_model(out / f"modem_{role}.json")
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailed(f"modem_{role}.json does not load back: {exc}") from exc
    return 0


def check_macs(out: Path, cfg, seed) -> int:
    rows = _read_stamped_csv(out / "macs.csv", cfg, seed)
    models = out.parent / "train"
    per_symbol = {"neural_near": count_macs(load_model(models / "modem_near.json")),
                  "neural_far": count_macs(load_model(models / "modem_far.json")),
                  "sic": sic_macs_per_symbol(cfg.quant.bits_near, cfg.quant.bits_far)}
    _require(len(rows) > 0, "macs.csv is empty")
    for r in rows:
        n = int(r["message_length"])
        for col, unit in per_symbol.items():
            _require(int(r[col]) == n * unit,
                     f"macs.csv: {col} at length {n} is {r[col]}, not {n} x {unit}")
    return 0


def _grid_len(lo, hi, step) -> int:
    return len(np.arange(lo, hi + step / 2.0, step))


def check_sweep(detectors: int):
    def check(out: Path, cfg, seed) -> int:
        rows = _read_stamped_csv(out / "sweep.csv", cfg, seed)
        s = cfg.sweep
        cells = (_grid_len(s.snr_near_lo_db, s.snr_near_hi_db, s.grid_step_db)
                 * _grid_len(s.snr_far_lo_db, s.snr_far_hi_db, s.grid_step_db))
        _require(len(rows) == cells * detectors,
                 f"sweep.csv has {len(rows)} rows, expected {cells} x {detectors}")
        for r in rows:
            mse = (float(r["mse_near"]), float(r["mse_far"]))
            ser = (float(r["ser_near"]), float(r["ser_far"]))
            _require(all(math.isfinite(v) for v in mse), f"non-finite MSE in {r}")
            _require(all(0.0 <= v <= 1.0 for v in ser), f"SER outside [0, 1] in {r}")
        return len(rows) * s.n_symbols * 2
    return check


def check_regions(out: Path, cfg, seed) -> int:
    """Region invariants; the tolerances are the acceptance gate's."""
    rows = _read_stamped_csv(out / "regions.csv", cfg, seed)
    curves = {}
    for r in rows:
        curves.setdefault(r["curve"], []).append(
            (float(r["x"]), float(r["y"]), r["feasible"] == "1"))
    names = ("noma-rate", "oma-rate", "noma-power", "oma-power")
    _require(sorted(curves) == sorted(names), f"unexpected curves {sorted(curves)}")
    for name in names:
        _require(any(f for _, _, f in curves[name]), f"{name} has no feasible point")

    noma, oma = curves["noma-rate"], curves["oma-rate"]
    _require([p[0] for p in noma] == [p[0] for p in oma], "rate curves differ in x")
    for (x, y_noma, f_noma), (_, y_oma, f_oma) in zip(noma, oma):
        if f_oma:
            _require(f_noma and y_noma >= y_oma - 1e-9,
                     f"NOMA rate {y_noma} below OMA rate {y_oma} at x={x}")
    for name in ("noma-power", "oma-power"):
        ys = [y for _, y, f in curves[name] if f]
        _require(all(b >= a - 1e-9 for a, b in zip(ys, ys[1:])),
                 f"{name} decreases along the requirement sweep")

    meta = json.loads((out / "regions_meta.json").read_text())
    # the acceptance gate promises the cheaper NOMA power only for the
    # "high" case and only at the base requirement level: OMA is cheaper
    # higher up the sweep, and at every level of "med" and "low"
    if meta["case"]["name"] == "high":
        (_, p_noma, f_noma), (_, p_oma, f_oma) = curves["noma-power"][0], curves["oma-power"][0]
        _require(f_noma and f_oma and p_noma <= p_oma * (1 + 1e-6),
                 f"base-level NOMA power {p_noma} above OMA power {p_oma}")
    for user, fit in meta["accuracy_models"].items():
        _require(fit["residual_rms"] < FIT_RMS_LIMIT,
                 f"{user} fit residual rms {fit['residual_rms']}")
        _require(fit["warning"] is None, f"{user} fit warning {fit['warning']!r}")
    return len(rows)


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, then the commands of one pass

def setup_pipeline(inputs: Path, seed: int) -> Plan:
    train_cfg = _write_json(inputs / "train.json", {"train": {"epochs": TRAIN_EPOCHS}})
    sweep_cfg = _write_json(inputs / "sweep.json", {"schema": 1})
    # the wide sweep: the (N, 2^m) nearest-point search at m = 6 (at
    # m = 8 run times were too noisy) and the fading and CSI-error draws
    wide_cfg = _write_json(inputs / "sweep_wide.json", {
        "quant": {"bits_near": 6, "bits_far": 6},
        "sweep": {"kind": "rayleigh", "estimation_error_delta": 0.1}})

    def steps(pass_dir: Path):
        train, macs = pass_dir / "train", pass_dir / "macs"
        sweep, wide = pass_dir / "sweep", pass_dir / "sweep-wide"
        common = ["--config", train_cfg, "--seed", seed]
        return [Step("train-modem", ["train-modem", *common, "--out", train],
                     train, check_train),
                Step("macs", ["macs", *common, "--out", macs, "--models", train],
                     macs, check_macs),
                Step("sweep", ["sweep", "--config", sweep_cfg, "--seed", seed,
                               "--out", sweep, "--detector", "both",
                               "--models", train],
                     sweep, check_sweep(detectors=2)),
                Step("sweep-wide", ["sweep", "--config", wide_cfg, "--seed", seed,
                                    "--out", wide, "--detector", "sic"],
                     wide, check_sweep(detectors=1))]
    return Plan({"train.json": train_cfg, "sweep.json": sweep_cfg,
                 "sweep_wide.json": wide_cfg}, steps)


def setup_regions(inputs: Path, seed: int) -> Plan:
    cfg = _write_json(inputs / "regions.json", {"schema": 1})
    csvs = {}
    for offset, kind in enumerate(("text", "image")):
        csvs[kind] = inputs / f"{kind}.csv"
        samples = synthetic_accuracy_samples(kind, noise=NOISY_ACCURACY_STD,
                                             seed=2 * seed + offset)
        write_accuracy_csv(csvs[kind], samples)

    def steps(pass_dir: Path):
        common = ["--config", cfg, "--seed", seed]
        out = []
        for case in ("high", "med", "low"):
            d = pass_dir / case
            out.append(Step(f"regions-{case}", ["regions", *common, "--out", d,
                                                "--case", case], d, check_regions))
        # not "high": there the two OMA bandwidth needs fill 11.94 of the
        # 12 Hz on the shipped curves, and a fit to noisy samples can
        # leave the OMA power curve with no feasible point
        d = pass_dir / "med-noisy"
        out.append(Step("regions-med-noisy",
                        ["regions", *common, "--out", d, "--case", "med",
                         "--text-csv", csvs["text"], "--image-csv", csvs["image"]],
                        d, check_regions))
        return out
    return Plan({"regions.json": cfg}, steps)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str  # what work_per_s counts on this workload
    setup: Callable  # setup(inputs_dir, seed) -> Plan


WORKLOADS = {w.name: w for w in (
    Workload("pipeline", "symbols", setup_pipeline),
    Workload("regions", "points", setup_regions),
)}
