"""Run every workload in a fresh process and print each end-to-end metric.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs as its own `run.py --trace 0` process, so peak RSS and
import cost are per workload.  Besides the metrics of the result line this
prints the wall-clock figures, failed_frac, shared_f_frac and the p90 times
(n/a unless at least 10 samples lie beyond them), with the sample count.
Exits 1 if any workload failed a check or did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """(result, extra) of one run.py process; RuntimeError if it fails."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    extra = json.loads(next(line[6:] for line in lines if line.startswith("extra ")))
    return json.loads(lines[-1]), extra


def main() -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    args = ap.parse_args()

    ok = True
    print(f"{'workload':<11} {'metric':<15} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        try:
            result, extra = run_workload(name, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name:<11} did not finish: {exc}")
            ok = False
            continue
        ok = ok and result["correct"]
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        rows += [
            ("query_p90_ref_s", extra["query_p90_ref_s"], "ref_s"),
            ("queries_per_s", extra["queries_per_s"], "1/s"),
            ("query_p50_s", extra["query_p50_s"], "s"),
            ("query_p90_s", extra["query_p90_s"], "s"),
            ("failed_frac", extra["failed_frac"], "ratio"),
            ("shared_f_frac", extra["shared_f_frac"], "ratio"),
        ]
        for metric, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:<11} {metric:<15} {shown:>14}  {unit}")
        print(f"{name:<11} {'samples':<15} {extra['samples']:>14}  count"
              f"  (cycles: {extra['cycles']}, failed: {result['failed']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
