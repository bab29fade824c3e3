"""Command-line front door: train the modem pair, sweep the link,
compute resource-allocation regions and report arithmetic cost.

Every subcommand is deterministic under a fixed seed and every CSV
starts with a comment line recording the config hash and seed, so a
rerun with the same inputs is byte-identical.  Exit codes: 0 success,
2 bad config, model file or accuracy CSV, or diverged training, 3 all
region curves empty.
"""

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, check_seed, config_hash, load_config
from .link import DETECTOR_NEURAL, DETECTOR_SIC, build_constellations, open_cell, run_link
from .modem import (ROLE_FAR, ROLE_NEAR, TrainingDivergedError, count_macs, load_model,
                    modem_macs, save_model, train_modem)
from .qam import sic_macs_per_symbol
from .regions import (default_rate_grid, noma_power_region, noma_rate_region,
                      oma_power_region, oma_rate_region)
from .srate import TRUE_CURVES, FitResult, fit_logistic, load_accuracy_csv

_MACS_LENGTHS = (1, 16, 64, 256, 1024)

# glibc's mallopt parameters (malloc.h) and the values main sets.  By
# default glibc gives each block at or above its mmap threshold (128 kB,
# raised to the size of each such block freed) a mapping of its own, and
# returns the top of the heap to the kernel once more than twice that
# threshold lies free there, so every cell of a neural sweep faulted its
# working memory in again: about 330k minor faults and 1.2 s of system
# time per default `sweep --detector both`.
# An mmap threshold of 8 MiB keeps the largest array of a default cell,
# Mlp.infer's 20,000 x 32 float64 hidden-layer buffer (4.9 MiB), on the
# heap (4 MiB still churned); a trim threshold of 16 MiB keeps the heap
# top a cell frees (10 MiB still churned, 12 MiB did not).  With both the
# second of two sweeps in one process takes about 10 faults.  A sweep of
# more symbols a cell raises both in proportion (_allocator_policy): at
# 50,000 the buffer is 12.2 MiB, and under 8/16 MiB the second sweep took
# 5,249 faults.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ALLOCATOR_POLICY = ((_M_MMAP_THRESHOLD, 8 << 20), (_M_TRIM_THRESHOLD, 16 << 20))
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc rejects more on 64-bit


def _libc_mallopt():
    """The C library's mallopt, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def _set_allocator_policy(policy=_ALLOCATOR_POLICY):
    """Set the heap thresholds of policy, (param, value) pairs.  Without
    mallopt, or where it rejects a value (it returns 0), the allocator
    keeps the value it had: only speed depends on this, no output."""
    mallopt = _libc_mallopt()
    if mallopt is not None:
        for param, value in policy:
            mallopt(param, value)


def _allocator_policy(largest: int):
    """The policy for a run whose largest array has this many bytes: an
    mmap threshold of 1.5 times it, capped at glibc's 64-bit maximum of
    32 MiB, and a trim threshold of twice that, neither below
    _ALLOCATOR_POLICY.  Up to about 21,800 symbols a sweep cell, the
    default 20,000 among them, that is _ALLOCATOR_POLICY itself."""
    (mmap_param, mmap_floor), (trim_param, trim_floor) = _ALLOCATOR_POLICY
    mmap = min(max(mmap_floor, largest * 3 // 2), _MMAP_THRESHOLD_MAX)
    return (mmap_param, mmap), (trim_param, max(trim_floor, 2 * mmap))


def _raise_allocator_policy(n: int, widths):
    """Raise the policy for a sweep of n symbols a cell whose demodulators
    have these layer widths, when its largest array outgrows main's: n
    rows of the widest layer (Mlp.infer's buffer), and at least the
    cell's (2, n, 2) noise normals, in float64."""
    policy = _allocator_policy(n * 8 * max([4, *widths]))
    if policy != _ALLOCATOR_POLICY:
        _set_allocator_policy(policy)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_csv(path: str, cfg: ExperimentConfig, seed: int, header: str, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={seed}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_train_modem(cfg: ExperimentConfig, seed: int, out_dir: str) -> int:
    near, far, trace = train_modem(cfg, seed)
    save_model(near, os.path.join(out_dir, "modem_near.json"))
    save_model(far, os.path.join(out_dir, "modem_far.json"))
    rows = [(e + 1, float(trace[e, 0]), float(trace[e, 1]))
            for e in range(trace.shape[0])]
    _write_csv(os.path.join(out_dir, "train_trace.csv"), cfg, seed,
               "epoch,loss_near,loss_far", rows)
    print(f"trained {trace.shape[0]} epochs; final losses "
          f"near={trace[-1, 0]:.6g} far={trace[-1, 1]:.6g}; "
          f"models and trace written to {out_dir}")
    return 0


def _load_models(where: str) -> tuple:
    """The (near, far) model pair train-modem wrote to directory where.
    ValueError names a file whose role is not the one its name gives."""
    paths = [os.path.join(where, f"modem_{role}.json") for role in (ROLE_NEAR, ROLE_FAR)]
    if not all(os.path.exists(p) for p in paths):
        raise ConfigError(f"no trained models found in {where} "
                          "(run train-modem first or pass --models)")
    models = tuple(load_model(p) for p in paths)
    for model, role, path in zip(models, (ROLE_NEAR, ROLE_FAR), paths):
        if model.role != role:
            raise ValueError(f"{path}: holds the {model.role} user's model, "
                             f"not the {role} user's")
    return models


def cmd_sweep(cfg: ExperimentConfig, seed: int, out_dir: str, detector: str,
              models_dir: str | None, grid_step_db: float | None,
              delta: float | None) -> int:
    # imported here, not with the module: it would add about 6.6 ms to every
    # command's start-up
    from concurrent.futures import ThreadPoolExecutor

    # the overrides face the config's own checks
    sweep = dataclasses.replace(
        cfg.sweep,
        grid_step_db=cfg.sweep.grid_step_db if grid_step_db is None else grid_step_db,
        estimation_error_delta=cfg.sweep.estimation_error_delta if delta is None else delta)
    detectors = {"both": (DETECTOR_NEURAL, DETECTOR_SIC)}.get(detector, (detector,))
    neural = DETECTOR_NEURAL in detectors
    n = sweep.n_symbols
    # before the model files are read: at main's lower trim threshold the
    # frees of reading them gave back the heap top a previous sweep in the
    # process left, and a second sweep of 50,000 symbols faulted in 3,200
    # pages again
    _raise_allocator_policy(n, cfg.train.hidden if neural else ())
    models = None
    if neural:
        models = _load_models(models_dir or out_dir)
        # models trained with wider layers than this config's
        _raise_allocator_policy(n, [w for m in models for w in m.demod.widths[1:]])

    step, dlt = sweep.grid_step_db, sweep.estimation_error_delta
    near_grid = np.arange(sweep.snr_near_lo_db, sweep.snr_near_hi_db + step / 2.0, step)
    far_grid = np.arange(sweep.snr_far_lo_db, sweep.snr_far_hi_db + step / 2.0, step)
    books = build_constellations(cfg, models)  # the cells differ only in their gains
    # block k is cell (i, j) = divmod(k, len(far_grid))
    cells = [(float(snr_n), float(snr_f)) for snr_n in near_grid for snr_f in far_grid]
    # two buffer sets, used in turn: a helper thread draws the next cell's
    # normals into one while this thread detects the current cell from the
    # other.  The streams and channel realizations are made here, since
    # perfbench traces stream_rng and realize on one span stack; the helper
    # only draws from them (CellDraws.fill).  Every cell's
    # streams are its own, so the order of the draws cannot change a value.
    buffers = [(np.empty((2, n, 2)), np.empty((2, n))) for _ in range(2)]

    def opened(block):
        return open_cell(cells[block], n, sweep.kind, dlt, seed, block, out=buffers[block % 2])

    rows = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(opened(0).fill)
        for block, gains in enumerate(cells):
            draws = ahead.result()  # re-raises what fill raised
            if block + 1 < len(cells):
                ahead = helper.submit(opened(block + 1).fill)
            rows.extend((rep.detector, sweep.kind, dlt, *gains,
                         rep.mse_near, rep.mse_far, rep.ser_near, rep.ser_far)
                        for rep in run_link(books, draws, detectors))
    _write_csv(os.path.join(out_dir, "sweep.csv"), cfg, seed,
               "detector,kind,delta,snr_near_db,snr_far_db,"
               "mse_near,mse_far,ser_near,ser_far", rows)
    print(f"swept {len(near_grid)}x{len(far_grid)} SNR cells x "
          f"{len(detectors)} detector(s), {n} symbols each; "
          f"wrote {len(rows)} rows to {out_dir}/sweep.csv")
    return 0


def _accuracy_model(kind: str, csv_path: str | None):
    """The accuracy curve fitted to a CSV's samples, or without a CSV the
    shipped ground-truth curve as given (source "builtin"): its residual
    of 0.0 is exact, because synthetic_accuracy_samples evaluates that
    same curve with xi_eval."""
    if not csv_path:
        return FitResult(TRUE_CURVES[kind], 0.0, 0, None), "builtin"
    samples = load_accuracy_csv(csv_path)
    try:
        return fit_logistic(samples), csv_path
    except ValueError as exc:  # too few rows, nan, accuracy beyond [0, 1]
        raise ValueError(f"{csv_path}: {exc}") from None


def cmd_regions(cfg: ExperimentConfig, seed: int, out_dir: str, case_name: str,
                text_csv: str | None, image_csv: str | None) -> int:
    r = cfg.region
    case = next((c for c in r.cases if c.name == case_name), None)
    if case is None:
        raise ConfigError(f"unknown requirement case {case_name!r}; "
                          f"config defines {[c.name for c in r.cases]}")
    fit_text, src_text = _accuracy_model("text", text_csv)
    fit_image, src_image = _accuracy_model("image", image_csv)

    levels = np.linspace(r.power_level_lo, r.power_level_hi,
                         r.power_sweep_points)

    rate_grid = default_rate_grid(r, fit_text.model)
    curves = [
        noma_rate_region(r, fit_text.model, fit_image.model, rate_grid),
        oma_rate_region(r, fit_text.model, fit_image.model, rate_grid),
        noma_power_region(r, case, fit_text.model, fit_image.model, levels),
        oma_power_region(r, case, fit_text.model, fit_image.model, levels),
    ]

    rows = [(c.scheme, p.x, p.y, int(p.feasible)) for c in curves for p in c.points]
    _write_csv(os.path.join(out_dir, "regions.csv"), cfg, seed,
               "curve,x,y,feasible", rows)

    def model_meta(fit, source):
        m = fit.model
        return {"a1": m.a1, "a2": m.a2, "c1": m.c1, "c2": m.c2,
                "residual_rms": fit.residual_rms, "iterations": fit.iterations,
                "source": source, "warning": fit.warning}

    meta = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "case": dataclasses.asdict(case),
        "accuracy_models": {"text": model_meta(fit_text, src_text),
                            "image": model_meta(fit_image, src_image)},
        "curves": {c.scheme: {"points": len(c.points),
                              "infeasible": c.dropped} for c in curves},
    }
    with open(os.path.join(out_dir, "regions_meta.json"), "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for c in curves:
        kept = len(c.points) - c.dropped
        print(f"{c.scheme}: {kept}/{len(c.points)} feasible points")
    if not any(c.feasible for c in curves):
        print("all region curves are empty under these requirements",
              file=sys.stderr)
        return 3
    return 0


def cmd_macs(cfg: ExperimentConfig, seed: int, out_dir: str,
             models_dir: str | None) -> int:
    if models_dir:
        macs_near, macs_far = (count_macs(m) for m in _load_models(models_dir))
    else:
        # the architecture alone fixes the count
        macs_near, macs_far = (modem_macs([2, *cfg.train.hidden, out_dim])
                               for out_dim in (2, 1))
    macs_sic = sic_macs_per_symbol(cfg.quant.bits_near, cfg.quant.bits_far)

    rows = [(n, n * macs_near, n * macs_far, n * macs_sic)
            for n in _MACS_LENGTHS]
    _write_csv(os.path.join(out_dir, "macs.csv"), cfg, seed,
               "message_length,neural_near,neural_far,sic", rows)
    print("per-symbol multiply-accumulate cost:")
    print(f"  neural near-user demodulator: {macs_near}")
    print(f"  neural far-user demodulator:  {macs_far}")
    print(f"  SIC baseline (both users):    {macs_sic}")
    print(f"totals for message lengths {list(_MACS_LENGTHS)} "
          f"written to {out_dir}/macs.csv (exactly linear in length)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nomalink",
        description="Link-level simulator for superimposed transmission of "
                    "quantized features: trained modem pair vs QAM+SIC "
                    "baseline, plus semantic rate/power region analysis.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config (defaults used if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p_train = sub.add_parser("train-modem", help="train and save the modem pair")
    common(p_train)

    p_sweep = sub.add_parser("sweep", help="error metrics over the test SNR grid")
    common(p_sweep)
    p_sweep.add_argument("--detector", choices=["neural", "sic", "both"],
                         default="both")
    p_sweep.add_argument("--models", help="directory holding modem_near.json / "
                                          "modem_far.json (default: --out)")
    p_sweep.add_argument("--grid-step-db", type=float, help="override grid step")
    p_sweep.add_argument("--delta", type=float,
                         help="override channel estimation error scale")

    p_reg = sub.add_parser("regions", help="rate and power region curves")
    common(p_reg)
    p_reg.add_argument("--case", default="high",
                       help="requirement case name from the config (default: high)")
    p_reg.add_argument("--text-csv", help="accuracy samples for the text user")
    p_reg.add_argument("--image-csv", help="accuracy samples for the image user")

    p_macs = sub.add_parser("macs", help="arithmetic cost table")
    common(p_macs)
    p_macs.add_argument("--models", help="count from saved model files")
    return ap


def main(argv=None) -> int:
    _set_allocator_policy()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        seed = cfg.seed if args.seed is None else args.seed
        check_seed(seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train-modem":
            return cmd_train_modem(cfg, seed, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, seed, args.out, args.detector, args.models,
                             args.grid_step_db, args.delta)
        if args.command == "regions":
            return cmd_regions(cfg, seed, args.out, args.case,
                               args.text_csv, args.image_csv)
        return cmd_macs(cfg, seed, args.out, args.models)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {args.command}: training diverged ({exc}); "
              "try a smaller learning_rate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
