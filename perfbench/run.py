"""gmexp benchmark: a closed loop of verdict queries on one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, no threads: each query is sent after the previous verdict
came back, through the public API (gmexp.engine.exponent_test and
gmexp.engine.koszul_cohomology), and checked against a closed form
(see workloads.py).  The loop runs whole cycles of the workload (every
cycle does the same work) and stops at the cycle boundary nearest to
--seconds, after at least one cycle (two when tracing).  Query times are
also taken at reference speed (see speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced cycles, prints the per-layer metrics, and writes the spans
and verdicts to perfbench/out/<workload>-seed<seed>-trace.json.  The
last line of standard output is the result object; the lines before it
give the environment and the metrics that are not in the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-ups timed before and again after the measured cycles; setup_s is the
# median of all of them.  Set-up takes about 0.05 s (0.5 s for per-degree),
# so the host's speed at one moment would decide a single group.
SETUP_REPEATS = 3
CELL_CAP_ENV = "GM_MAX_WINDOW_CELLS"


def import_gmexp() -> dict:
    """Fresh import of gmexp; returns the layer modules by short name."""
    for name in [m for m in sys.modules if m == "gmexp" or m.startswith("gmexp.")]:
        del sys.modules[name]
    import gmexp  # noqa: F401  (imports every layer)

    return {
        m: sys.modules[f"gmexp.{m}"]
        for m in ("engine", "parser", "arrangements", "rational", "ring")
    }


@dataclass
class Query:
    id: int
    cycle: int
    shape: workloads.Shape
    f_src: str
    g_src: str
    alpha: Fraction
    expect: workloads.Expect
    problem: object  # dropped once the query has run
    f_key: str  # canonical form of f


class QuerySource:
    """Builds the queries of each cycle; refuses to repeat an (f, g, alpha) query."""

    def __init__(self, mods: dict, workload: workloads.Workload, seed: int):
        self.mods = mods
        self.plan = workloads.Plan(workload, seed)
        self.cycles = 0
        self._seen_fg: set = set()
        self._seen: set = set()
        self._next_id = 0

    def prepare_cycle(self) -> list[Query]:
        parser, engine, serialize = self.mods["parser"], self.mods["engine"], self.mods["ring"].serialize
        out = []
        for shape, alphas in self.plan.cycle():
            while True:
                f_src, g_src = self.plan.next_variant(shape)
                f = parser.parse_poly(f_src, shape.n)
                g = parser.parse_poly(g_src, shape.n)
                fg = (serialize(f), serialize(g))
                if shape.alphas is None or fg not in self._seen_fg:
                    break
            self._seen_fg.add(fg)
            for alpha in alphas:
                key = fg + (alpha,)
                if key in self._seen:
                    raise RuntimeError(f"query repeated within the run: {f_src} / {g_src} @ {alpha}")
                self._seen.add(key)
                p = engine.ProblemInstance(n=shape.n, f=f, g=g, alpha=str(alpha))
                out.append(Query(self._next_id, self.cycles, shape, f_src, g_src, alpha,
                                 shape.oracle(alpha), p, fg[0]))
                self._next_id += 1
        self.cycles += 1
        return out


def run_query(engine, kind: str, p):
    # module attribute lookups, so that installed trace wrappers are seen
    if kind == "koszul":
        return engine.koszul_cohomology(p, engine.default_schedule(p)[0])
    if kind == "per-degree":
        return engine.exponent_test(p, method="per-degree")
    return engine.exponent_test(p)


def check(kind: str, expect: workloads.Expect, result) -> tuple[bool, dict]:
    """Oracle comparison; undetermined verdicts count as failures."""
    if kind == "koszul":
        dims = {str(k): v for k, v in result.items()}
        return all(v == 0 for v in dims.values()), {"koszul_dims": dims}
    verdict = result.verdict.value
    summary = {
        "verdict": verdict,
        "cokernel_dim": result.cokernel_dim,
        "estimates": list(result.estimates),
        "method": result.method,
    }
    ok = verdict != "undetermined" and (verdict == "exponent") == expect.exponent
    if expect.cokernel is not None:
        ok = ok and result.cokernel_dim == expect.cokernel
    return ok, summary


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, rational) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "have_gmpy2": bool(rational.HAVE_GMPY2),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def setup(workload, seed):
    """Import, workload generation, parsing and ProblemInstance construction
    for the first cycle; returns (seconds, modules, query source, first cycle)."""
    gc.collect()
    t0 = time.perf_counter()
    mods = import_gmexp()
    source = QuerySource(mods, workload, seed)
    first = source.prepare_cycle()
    return time.perf_counter() - t0, mods, source, first


@dataclass
class Record:
    query: Query
    traced: bool
    start: float
    end: float
    wall_s: float  # less the speed probe's own time
    ok: bool
    result: dict
    ref_s: float = 0.0  # wall_s at reference speed, set after the run


def measure(source: QuerySource, first: list[Query], kind: str, seconds: float, tracer, probe):
    """Closed loop over whole cycles.  With a tracer, odd cycles are traced."""
    engine = source.mods["engine"]
    min_cycles = 2 if tracer else 1
    records: list[Record] = []
    cycle_s: list[float] = []
    queries = first
    start = time.perf_counter()
    while True:
        k = len(cycle_s)
        traced = tracer is not None and k % 2 == 1
        t_cycle = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            if queries is None:
                if tracer:
                    tracer.query_id = f"prep{k}"
                queries = source.prepare_cycle()
            for q in queries:
                if tracer:
                    tracer.query_id = q.id
                t0 = time.perf_counter()
                try:
                    result = run_query(engine, kind, q.problem)
                except Exception as exc:  # a failed query is counted, the loop goes on
                    t1 = time.perf_counter()
                    traceback.print_exc(file=sys.stderr)
                    ok, summary = False, {"error": repr(exc)}
                else:
                    t1 = time.perf_counter()
                    ok, summary = check(kind, q.expect, result)
                wall = t1 - t0 - probe.busy_between(t0, t1)
                q.problem = None
                records.append(Record(q, traced, t0, t1, wall, ok, summary))
        cycle_s.append(time.perf_counter() - t_cycle)
        queries = None
        elapsed = time.perf_counter() - start
        if len(cycle_s) >= min_cycles and elapsed + cycle_s[-1] / 2 >= seconds:
            return records, len(cycle_s)


def shared_f_frac(records) -> float:
    seen, shared = set(), 0
    for r in records:
        shared += r.query.f_key in seen
        seen.add(r.query.f_key)
    return shared / len(records)


def tail_percentile(times: list[float]) -> float | None:
    """p90 of the query times, or None when fewer than 10 samples lie beyond it."""
    if len(times) < 2:
        return None
    p90 = statistics.quantiles(times, n=10)[-1]
    return p90 if sum(t > p90 for t in times) >= 10 else None


def write_trace(path: Path, env: dict, args, records, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "env": env,
        "workload": args.workload,
        "queries": [
            {
                "id": r.query.id, "cycle": r.query.cycle, "traced": r.traced,
                "shape": r.query.shape.name, "f": r.query.f_src, "g": r.query.g_src,
                "alpha": str(r.query.alpha), "wall_s": r.wall_s, "ref_s": r.ref_s, "ok": r.ok,
                "result": r.result,
            }
            for r in records
        ],
        "span_fields": ["name", "start_s", "end_s", "parent", "query_id", "counts"],
        "spans": spans,
    }
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; 0 runs the fewest cycles (one, two when tracing)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if CELL_CAP_ENV in os.environ:
        print(f"refusing to run: {CELL_CAP_ENV} is set and would cap the workload", file=sys.stderr)
        return 2
    if not (SRC / "gmexp" / "__init__.py").is_file():
        print(f"gmexp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_s = []
    for _ in range(repeats):
        dt, mods, source, first = setup(workload, args.seed)
        setup_s.append(dt)
    env = environment(args.seed, mods["rational"])
    print("env " + json.dumps(env))

    tracer = tracing.Tracer(mods) if args.trace else None
    with speed.SpeedProbe() as probe:
        records, cycles = measure(source, first, workload.query, args.seconds, tracer, probe)
    for r in records:
        r.ref_s = r.wall_s * probe.factor(r.start, r.end)
    if not args.trace:
        setup_s += [setup(workload, args.seed)[0] for _ in range(SETUP_REPEATS)]

    walls = [r.wall_s for r in records]
    refs = [r.ref_s for r in records]
    failed = sum(not r.ok for r in records)
    extra = {
        "workload": args.workload,
        "cycles": cycles,
        "samples": len(records),
        "failed_frac": failed / len(records),
        "shared_f_frac": shared_f_frac(records),
        "query_p90_ref_s": tail_percentile(refs),
        "queries_per_s": len(walls) / sum(walls),
        "query_p50_s": statistics.median(walls),
        "query_p90_s": tail_percentile(walls),
        "reference_ms": 1000 * statistics.mean(probe.durations),
        "probe_frac": sum(probe.durations) / (records[-1].end - records[0].start),
    }
    print("extra " + json.dumps(extra))

    if args.trace:
        def per_cycle(traced: bool) -> float:
            rs = [r for r in records if r.traced == traced]
            return sum(r.ref_s for r in rs) / len({r.query.cycle for r in rs})

        traced = [r for r in records if r.traced]
        metrics = tracing.layer_metrics(
            tracer.spans,
            probe.busy_between,
            cycles=len({r.query.cycle for r in traced}),
            query_s=sum(r.wall_s for r in traced),
            overhead_frac=per_cycle(True) / per_cycle(False) - 1,
        )
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        write_trace(path, env, args, records, tracer.spans)
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "queries_per_ref_s": {"value": len(refs) / sum(refs), "unit": "1/ref_s"},
            "query_p50_ref_s": {"value": statistics.median(refs), "unit": "ref_s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    if failed:
        print(f"{failed} of {len(records)} queries failed their oracle check", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
