"""Command-line front door: train the modem pair, sweep the link,
compute resource-allocation regions and report arithmetic cost.

Every subcommand is deterministic under a fixed seed and every CSV
starts with a comment line recording the config hash and seed, so a
rerun with the same inputs is byte-identical.  Exit codes: 0 success,
2 bad config, model file or accuracy CSV, or diverged training, 3 all
region curves empty.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import rng as _rng
from .channel import ChannelSpec
from .config import (ConfigError, ExperimentConfig, RegionSection, config_hash,
                     load_config)
from .link import (DETECTOR_NEURAL, DETECTOR_SIC, LinkScenario, run_link,
                   sample_features)
from .modem import (TrainConfig, TrainingDivergedError, count_macs, load_model,
                    save_model, train_modem)
from .qam import sic_macs_per_symbol
from .quant import fit_quantizer
from .regions import (RegionQuery, default_rate_grid, noma_power_region,
                      noma_rate_region, oma_power_region, oma_rate_region)
from .srate import (fit_logistic, image_profile, load_accuracy_csv,
                    synthetic_accuracy_samples, text_profile)

_MACS_LENGTHS = (1, 16, 64, 256, 1024)


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


def _scenario(cfg: ExperimentConfig) -> LinkScenario:
    return LinkScenario(
        rho_near=cfg.link.rho_near, rho_far=cfg.link.rho_far,
        m_near=cfg.quant.bits_near, m_far=cfg.quant.bits_far,
        gain_near_db=cfg.link.gain_near_db, gain_far_db=cfg.link.gain_far_db,
        p_max_watts=cfg.link.p_max_watts, bandwidth_hz=cfg.link.bandwidth_hz,
        bound_s=cfg.quant.bound_s, bound_d=cfg.quant.bound_d,
        superposition=cfg.link.superposition)


def cmd_train_modem(cfg: ExperimentConfig, seed: int, out_dir: str) -> int:
    tc = TrainConfig(
        epochs=cfg.train.epochs, batch_size=cfg.train.batch_size,
        learning_rate=cfg.train.learning_rate,
        dataset_size=cfg.train.dataset_size,
        snr_train_near_db=cfg.train.snr_train_near_db,
        snr_train_far_db=cfg.train.snr_train_far_db,
        rho_near=cfg.link.rho_near, rho_far=cfg.link.rho_far,
        hidden=cfg.train.hidden, superposition=cfg.link.superposition,
        seed=seed)
    q_near = fit_quantizer(cfg.quant.bits_near, cfg.quant.bound_s, cfg.quant.bound_d)
    q_far = fit_quantizer(cfg.quant.bits_far, cfg.quant.bound_s, cfg.quant.bound_d)
    near, far, trace = train_modem(tc, q_near, q_far,
                                   ChannelSpec(kind=cfg.sweep.kind, seed=seed))
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


def _snr_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ConfigError("grid_step_db must be positive")
    return np.arange(lo, hi + step / 2.0, step)


def cmd_sweep(cfg: ExperimentConfig, seed: int, out_dir: str, detector: str,
              models_dir: str | None, grid_step_db: float | None,
              delta: float | None) -> int:
    detectors = {"both": (DETECTOR_NEURAL, DETECTOR_SIC)}.get(detector, (detector,))
    models = None
    if DETECTOR_NEURAL in detectors:
        where = models_dir or out_dir
        near_path = os.path.join(where, "modem_near.json")
        far_path = os.path.join(where, "modem_far.json")
        if not (os.path.exists(near_path) and os.path.exists(far_path)):
            raise ConfigError(
                f"neural detection needs trained models; not found in {where} "
                "(run train-modem first or pass --models)")
        models = (load_model(near_path), load_model(far_path))

    step = cfg.sweep.grid_step_db if grid_step_db is None else grid_step_db
    dlt = cfg.sweep.estimation_error_delta if delta is None else delta
    near_grid = _snr_grid(cfg.sweep.snr_near_lo_db, cfg.sweep.snr_near_hi_db, step)
    far_grid = _snr_grid(cfg.sweep.snr_far_lo_db, cfg.sweep.snr_far_hi_db, step)
    base = _scenario(cfg)
    n = cfg.sweep.n_symbols

    rows = []
    for i, snr_n in enumerate(near_grid):
        for j, snr_f in enumerate(far_grid):
            block = i * len(far_grid) + j
            sc = dataclasses.replace(base, gain_near_db=float(snr_n),
                                     gain_far_db=float(snr_f))
            vec_n = sample_features(n, sc.bound_s, sc.bound_d, seed,
                                    _rng.USER_NEAR, block)
            vec_f = sample_features(n, sc.bound_s, sc.bound_d, seed,
                                    _rng.USER_FAR, block)
            for det in detectors:
                rep = run_link(sc, vec_n, vec_f, models=models, detector=det,
                               kind=cfg.sweep.kind, delta=dlt, seed=seed,
                               block=block)
                rows.append((det, cfg.sweep.kind, dlt, float(snr_n), float(snr_f),
                             rep.mse_near, rep.mse_far, rep.ser_near, rep.ser_far))
    _write_csv(os.path.join(out_dir, "sweep.csv"), cfg, seed,
               "detector,kind,delta,snr_near_db,snr_far_db,"
               "mse_near,mse_far,ser_near,ser_far", rows)
    print(f"swept {len(near_grid)}x{len(far_grid)} SNR cells x "
          f"{len(detectors)} detector(s), {n} symbols each; "
          f"wrote {len(rows)} rows to {out_dir}/sweep.csv")
    return 0


def _accuracy_model(kind: str, csv_path: str | None):
    """Fit an accuracy curve from a CSV or the shipped synthetic samples."""
    if csv_path:
        samples = load_accuracy_csv(csv_path)
        source = csv_path
    else:
        samples = synthetic_accuracy_samples(kind)
        source = "builtin-synthetic"
    fit = fit_logistic(samples)
    return fit, source


def cmd_regions(cfg: ExperimentConfig, seed: int, out_dir: str, case_name: str,
                text_csv: str | None, image_csv: str | None) -> int:
    r = cfg.region
    case = next((c for c in r.cases if c.name == case_name), None)
    if case is None:
        raise ConfigError(f"unknown requirement case {case_name!r}; "
                          f"config defines {[c.name for c in r.cases]}")
    fit_text, src_text = _accuracy_model("text", text_csv)
    fit_image, src_image = _accuracy_model("image", image_csv)

    scenario = LinkScenario(
        rho_near=cfg.link.rho_near, rho_far=cfg.link.rho_far,
        m_near=cfg.quant.bits_near, m_far=cfg.quant.bits_far,
        gain_near_db=r.gain_near_db, gain_far_db=r.gain_far_db,
        p_max_watts=r.p_max_watts, bandwidth_hz=r.bandwidth_hz,
        bound_s=cfg.quant.bound_s, bound_d=cfg.quant.bound_d,
        superposition=cfg.link.superposition)
    rate_query = RegionQuery(
        scenario=scenario, near_profile=text_profile(r.text_k_symbols),
        far_profile=image_profile(r.image_compression),
        xi_req_near=r.xi_req_near, xi_req_far=r.xi_req_far,
        grid_points=r.grid_points, sweep_points=r.sweep_points)
    power_query = dataclasses.replace(
        rate_query, xi_req_far=case.xi_req_far,
        rate_req_near=case.rate_req_near, rate_req_far=case.rate_req_far,
        sweep_points=r.power_sweep_points)
    levels = np.linspace(r.power_level_lo, r.power_level_hi,
                         r.power_sweep_points)

    x_grid = default_rate_grid(rate_query, fit_text.model)
    curves = [
        noma_rate_region(rate_query, fit_text.model, fit_image.model, x_grid),
        oma_rate_region(rate_query, fit_text.model, fit_image.model, x_grid),
        noma_power_region(power_query, fit_text.model, fit_image.model, levels),
        oma_power_region(power_query, fit_text.model, fit_image.model, levels),
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
        near = load_model(os.path.join(models_dir, "modem_near.json"))
        far = load_model(os.path.join(models_dir, "modem_far.json"))
        macs_near, macs_far = count_macs(near), count_macs(far)
    else:
        # architecture alone fixes the count: modulator + dense demod chain
        def arch_macs(out_dim):
            widths = [2, *cfg.train.hidden, out_dim]
            return 2 + sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        macs_near, macs_far = arch_macs(2), arch_macs(1)
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        seed = cfg.seed if args.seed is None else args.seed
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
