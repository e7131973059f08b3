"""Benchmark self-test: a traced run repeats exactly for the same seed.

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload (all by default) this makes two `run.py --seconds 0
--trace 1` runs with the same seed (one untraced and one traced cycle
each) and requires identical query sequences, verdicts and per-layer
counts (calls, nnz, pivots, windows, cells, hit_ratio).  Times are not
compared.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing
import workloads
from report import HERE, run_workload


def traced_run(name: str, seed: int) -> tuple[dict, list]:
    result, _extra = run_workload(name, seed, 0, trace=1)
    trace = json.loads((HERE / "out" / f"{name}-seed{seed}-trace.json").read_text())
    queries = [
        (q["shape"], q["f"], q["g"], q["alpha"], q["traced"], q["ok"], q["result"])
        for q in trace["queries"]
    ]
    return result, queries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()

    bad = 0
    for name in args.workloads:
        (res_a, q_a), (res_b, q_b) = traced_run(name, args.seed), traced_run(name, args.seed)
        problems = []
        if q_a != q_b:
            problems.append("query sequence or verdicts differ")
        if not (res_a["correct"] and res_b["correct"]):
            problems.append("oracle check failed")
        for metric in tracing.COUNTS:
            a, b = res_a["metrics"][metric]["value"], res_b["metrics"][metric]["value"]
            if a != b:
                problems.append(f"{metric}: {a} != {b}")
        bad += bool(problems)
        status = "PASS" if not problems else "FAIL: " + "; ".join(problems)
        print(f"[selftest] {name}: {len(q_a)} queries, {status}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
