"""Run every workload untraced and traced, one after the other, at
seed 0 and BENCHMARK.json's run_seconds, and print each end-to-end
metric by name and unit, per workload, with the tracing overhead
(traced wall_s minus untraced wall_s).

    python3 perfbench/suite.py [--record FILE]

--record writes the figures, the environment and the output digests to
FILE as JSON (perfbench/baseline.json holds the one for the parent commit).
"""

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, run_workload

SEED = 0


def run(workload, seconds, trace):
    """One measured run; the worker's full result dict."""
    result = run_workload(workload, SEED, seconds, trace)
    if result is None:
        sys.exit(f"{workload} trace={trace}: the run broke")
    return result


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", type=Path)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    record = {"seed": SEED, "seconds": seconds, "workloads": {}}
    all_correct = True
    for w in (w["name"] for w in bench["workloads"]):
        plain, traced = (run(w, seconds, t) for t in (0, 1))
        overhead = (traced["metrics"]["bench.traced_wall_s"]["value"]
                    - plain["metrics"]["wall_s"]["value"])
        print(f"== {w}  ({plain['work_unit']}; env {plain['env']})")
        for name, m in plain["metrics"].items():
            print(f"  {name:<14} {m['value']:>14.6g} {m['unit']}")
        failed_ratio = plain["failed"] / plain["attempted"]
        print(f"  {'failed_ratio':<14} {failed_ratio:>14.6g} 1")
        print(f"  {'trace_overhead':<14} {overhead:>14.6g} s")
        print(f"  outputs_csv_sha256 {plain['csv_sha256']}")
        for msg in plain["failures"] + traced["failures"] + traced["inconsistent_counts"]:
            print(f"  FAILED {msg}")
        all_correct = all_correct and plain["correct"] and traced["correct"]
        record["workloads"][w] = {
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "failed_ratio": failed_ratio,
            "trace_overhead_s": overhead,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "csv_sha256": plain["csv_sha256"],
            "env": plain["env"],
        }
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
