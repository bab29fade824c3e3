"""One benchmark run in a fresh interpreter, started by run.py.

Set-up is the imports plus making the workload's inputs from the seed;
with --setup-only the worker stops after it, so that run.py can time
set-up in several fresh processes.  Then passes of the workload's CLI
command sequence run back to back through nomalink.cli.main, one
process and one client: at least MIN_PASSES, and another one only
while it is expected to end within --seconds, judged by the median
pass so far.  Afterwards every command's
outputs are checked and compared byte for byte with the first pass.
The result goes to <run-dir>/result.json; stdout stays quiet.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import nomalink  # noqa: E402
from nomalink import cli  # noqa: E402
from nomalink.config import load_config  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

ROOT = Path(__file__).resolve().parents[1]
# every pass after the first is compared with it byte for byte
MIN_PASSES = 2


def run_command(argv):
    """Run one CLI command; None on success, else why it failed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return f"exited via SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # the command's failure is the measurement
        return f"raised {type(exc).__name__}: {exc}"
    if rc != 0:
        return f"exit code {rc}: {err.getvalue().strip()}"
    return None


def file_digests(directory: Path):
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def csv_digest(steps):
    """SHA-256 over the CSV outputs of one pass, in command order."""
    h = hashlib.sha256()
    for step in steps:
        for p in sorted(step.out.glob("*.csv")):
            h.update(f"{step.label}/{p.name}\n".encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, config_hashes):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "config_hashes": config_hashes,
        "seed": seed,
        "git_commit": git_commit(ROOT),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(nomalink.__file__).resolve().parents:
        sys.exit(f"nomalink imported from {nomalink.__file__}, not from {src}")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    run_dir = Path(args.run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        plan = workload.setup(inputs, args.seed)
    setup_s = IMPORT_S + time.perf_counter() - t0
    if args.setup_only:
        (run_dir / "result.json").write_text(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(nomalink)
        marks = [tracer.mark()]
    passes = []
    t_begin = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t_begin + statistics.median(p[0] for p in passes)
            <= args.seconds):
        steps = plan.steps(run_dir / f"pass{len(passes)}")
        t0 = time.perf_counter()
        outcomes = [run_command(step.argv) for step in steps]
        passes.append((time.perf_counter() - t0, steps, outcomes))
        if tracer:
            marks.append(tracer.mark())
    if tracer:
        tracer.uninstall()

    configs = {}
    failures, work = [], []
    for k, (_, steps, outcomes) in enumerate(passes):
        pass_work = 0
        for i, (step, reason) in enumerate(zip(steps, outcomes)):
            if reason is None:
                if step.config_path not in configs:
                    configs[step.config_path] = load_config(step.config_path)
                cfg = configs[step.config_path]
                try:
                    pass_work += step.check(step.out, cfg, args.seed)
                except CheckFailed as exc:
                    reason = f"check failed: {exc}"
            if reason is None and k > 0 and \
                    file_digests(step.out) != file_digests(passes[0][1][i].out):
                reason = "outputs differ from the first pass"
            if reason is not None:
                failures.append(f"pass {k} {step.label}: {reason}")
        work.append(pass_work)

    walls = [p[0] for p in passes]
    attempted = sum(len(p[1]) for p in passes)
    metrics, inconsistent = {}, []
    if not tracer:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "work_per_s": (statistics.median(w / t for w, t in zip(work, walls)), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_pass = []
        for k in range(len(passes)):
            m = tracing.layer_metrics(*tracing.pass_stats(tracer, marks[k], marks[k + 1]))
            m["cli.output_bytes"] = sum(p.stat().st_size for step in passes[k][1]
                                        for p in step.out.rglob("*") if p.is_file())
            m["bench.work"] = work[k]
            m["bench.traced_wall_s"] = walls[k]
            per_pass.append(m)
        units = tracing.metric_units()
        for name, unit in units.items():
            values = [m[name] for m in per_pass]
            if unit in tracing.EXACT_UNITS:
                if len(set(values)) != 1:
                    inconsistent.append(f"{name} differs between passes: {values}")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        tracer.save(run_dir / "spans.npz")

    result = {
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "inconsistent_counts": inconsistent,
        "correct": not failures and not inconsistent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s,
        "import_s": IMPORT_S,
        "pass_walls_s": walls,
        "csv_sha256": csv_digest(passes[0][1]),
        "env": environment(args.seed, plan.config_hashes()),
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
