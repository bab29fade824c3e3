"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Two traced runs of each workload at seed 0 must report the
   same exact figures (every unit in tracing.EXACT_UNITS: calls, work,
   points, fit iterations, computed matrix bytes, output bytes), and
   exactly the per-layer metrics BENCHMARK.json lists.
2. The output checks must reject doctored copies of real outputs.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
from run import ROOT, run_workload  # noqa: E402
from workloads import (CheckFailed, check_regions, check_sweep,  # noqa: E402
                       check_train)
from nomalink.config import load_config  # noqa: E402

SEED = 0
# exact figures do not depend on run length; the worker still runs two passes
SECONDS = 1


def traced_run(workload):
    """One traced run; its result dict and run directory."""
    result = run_workload(workload, SEED, SECONDS, 1)
    if result is None:
        raise SystemExit(f"{workload}: the run broke")
    return result, Path(result["run_dir"])


def exact_figures(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in tracing.EXACT_UNITS}


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"self-test cannot doctor {path}: {old!r} not found")
    path.write_text(text.replace(old, new, 1))


def _set_field(path: Path, column: int, value: str, prefix: str = ""):
    """Overwrite one field of the last CSV row that starts with prefix."""
    lines = path.read_text().splitlines(keepends=True)
    row = [i for i, line in enumerate(lines) if line.startswith(prefix)][-1]
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = value
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def doctored_outputs(workload, run_dir: Path):
    """(description, check, doctored dir, config) cases for one workload."""
    pass0 = run_dir / "pass0"
    cases = []

    def copy(name, sub):
        dst = run_dir / "doctored" / name
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(pass0 / sub, dst)
        return dst

    if workload == "pipeline":
        cfg = load_config(str(run_dir / "inputs" / "train.json"))
        d = copy("nan-loss", "train")
        _set_field(d / "train_trace.csv", 1, "nan")
        cases.append(("non-finite loss", check_train, d, cfg))
        d = copy("bad-model", "train")
        (d / "modem_far.json").write_text("{}\n")
        cases.append(("model that does not load", check_train, d, cfg))
        for sub, name, detectors in (("sweep", "sweep.json", 2),
                                     ("sweep-wide", "sweep_wide.json", 1)):
            cfg = load_config(str(run_dir / "inputs" / name))
            d = copy(f"{sub}-ser-above-one", sub)
            _set_field(d / "sweep.csv", -1, "1.5")
            cases.append((f"{sub} SER above 1", check_sweep(detectors), d, cfg))
            d = copy(f"{sub}-missing-row", sub)
            lines = (d / "sweep.csv").read_text().splitlines(keepends=True)
            (d / "sweep.csv").write_text("".join(lines[:-1]))
            cases.append((f"{sub} missing row", check_sweep(detectors), d, cfg))
    elif workload == "regions":
        cfg = load_config(str(run_dir / "inputs" / "regions.json"))
        d = copy("fit-warning", "med-noisy")
        _edit(d / "regions_meta.json", '"warning": null', '"warning": "poor fit"')
        cases.append(("fit warning", check_regions, d, cfg))
        d = copy("power-drop", "high")
        _set_field(d / "regions.csv", 2, "0", prefix="oma-power,")
        cases.append(("power that drops along the sweep", check_regions, d, cfg))
    return cases


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = [m["name"] for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        (first, run_dir), (second, _) = (traced_run(workload) for _ in range(2))
        if list(first["metrics"]) != listed:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        a, b = exact_figures(first), exact_figures(second)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b.get(k)}
        if diff or not first["correct"] or not second["correct"]:
            problems.append(f"{workload}: exact figures differ {diff} or a run failed")
        print(f"{workload}: {len(a)} exact figures repeat: {not diff}")
        for what, check, out, cfg in doctored_outputs(workload, run_dir):
            try:
                check(out, cfg, SEED)
            except CheckFailed as exc:
                print(f"{workload}: {what} rejected ({exc})")
            else:
                problems.append(f"{workload}: check accepted {what}")
    for p in problems:
        print(f"FAILED {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
