"""nomalink benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload {pipeline,regions}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload runs in a fresh
child interpreter (perfbench/worker.py) that imports nomalink from the
checkout's src/ with BLAS pinned to one thread; its outputs and spans
land in .perfbench/ under the checkout.  Untraced runs then repeat the
set-up alone in SETUP_PROBES more fresh interpreters, and setup_s is
the median of all set-ups.  The summary goes to stdout and
its last line is one JSON object: correct, attempted, failed, metrics.
Exit codes: 0 measured (see "correct"), 1 the run broke, 2 bad usage or
no nomalink sources in this checkout.

suite.py and selftest.py call run_workload() from here, so the layout of
.perfbench/ is known in this file only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a run must end within 180 s: the main worker and the set-up probes
# share this budget, and a worker still going when it is spent is stuck
RUN_BUDGET_S = 170
SETUP_PROBES = 8
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(run_dir, workload, seed, seconds, trace, deadline, setup_only=False):
    """Run the worker in a fresh interpreter until the perf_counter
    deadline at the latest; its result dict or None."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        print(f"run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return None
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_BUDGET_S} s; its worker was killed", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def run_workload(workload, seed, seconds, trace):
    """One measured run of a workload: the worker's result dict, with
    setup_s the median of all set-ups when untraced, or None if it broke.
    The result is also kept in .perfbench/<workload>-seed<n>-trace<t>/."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    run_dir = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}"
    r = run_worker(run_dir, workload, seed, seconds, trace, deadline)
    if r is None:
        return None
    r["run_dir"] = str(run_dir)
    if trace:
        return r
    setups = [r["setup_s"]]
    for k in range(SETUP_PROBES):
        probe = run_worker(run_dir / f"setup-probe{k}", workload, seed, seconds, trace,
                           deadline, setup_only=True)
        if probe is None:
            return None
        setups.append(probe["setup_s"])
    r["setup_samples_s"] = setups
    r["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                    **r["metrics"]}
    (run_dir / "result.json").write_text(json.dumps(r, indent=2) + "\n")
    return r


def summary_lines(r):
    env = r["env"]
    yield (f"workload {r['workload']}  seed {env['seed']}  trace {r['trace']}  "
           f"passes {r['passes']}  commands {r['attempted']}")
    yield (f"env nproc={env['nproc']} machine={env['machine']} python={env['python']} "
           f"numpy={env['numpy']} blas={env['blas']!r} blas_threads={env['blas_threads']} "
           f"commit={env['git_commit']}")
    for name, digest in env["config_hashes"].items():
        yield f"config_hash {name} {digest}"
    yield f"outputs_csv_sha256 {r['csv_sha256']}"
    yield (f"failed_ratio {r['failed'] / r['attempted']:.6g} 1  "
           f"({r['failed']} of {r['attempted']} commands failed)")
    for msg in r["failures"] + r["inconsistent_counts"]:
        yield f"FAILED {msg}"
    for name, m in r["metrics"].items():
        alias = f"  ({r['work_unit']}_per_s)" if name == "work_per_s" else ""
        yield f"{name} {m['value']:.6g} {m['unit']}{alias}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "nomalink" / "__init__.py").is_file():
        print(f"no nomalink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    r = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if r is None:
        return 1
    for line in summary_lines(r):
        print(line)
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
