"""Command-line front end: job configuration and JSON reporting.

Subcommands:

    exponent-test   --n N --f EXPR [--g EXPR] --alphas a1,a2,...
    arrangement     --weights w0,w1,...  [--alphas ...]
    family          --n N --p EXPR --q EXPR [--r EXPR] --d D --alphas ...
    univariate      --L "A0=(D-1/2)*(D-1/3); A1=D^5"
    operator-check  --op "compose(Dtr(1/2), t)" [--apply EXPR]

Reports are JSON with a schema field, an echo of the inputs, the library
version, and a timing field (the only nondeterministic part).  Exit
codes: 0 success, 2 parse error (a GM_MAX_WINDOW_CELLS that is not a
nonnegative integer too, before any option is read), 3 precondition
violation (an --output or --dump-matrix path that cannot be written too,
checked for a missing directory before the run, and --dump-matrix with no
class in --alphas), 4 resource limit
exceeded (the window cell cap, GM_MAX_WINDOW_CELLS or else
engine.DEFAULT_MAX_WINDOW_CELLS; engine.MAX_WINDOW_ENTRIES, on a window's
cells times its longest stencil; a MemoryError, a RecursionError,
univariate's A0 size cap and root scan, or a polynomial product past
ring.MAX_PRODUCT_WORK in any option, a power or an arrangement's lambda
included).  Every option's text is read by parser.Tokens, --alphas and
--weights as comma lists of rationals, so a malformed number (1/0 too) is
a parse error at an offset into its argument, in any option.

The degree windows come from the shift analysis of each instance
(engine.default_schedule); --max-rounds sets only how many are tried.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .arrangements import (
    Arrangement,
    candidate_exponents,
    gcd_criterion,
    lambda_poly,
    oracle_suite,
)
from .engine import (
    ProblemInstance,
    ResourceLimitError,
    _select,
    assemble_phi,
    default_schedule,
    exponent_test,
    window_cell_cap,
)
from .operators import apply as op_apply
from .operators import NotDiagonalError, invertible_on, parse_operator
from .parser import ParseError, parse_poly, parse_rationals
from .reduction import (
    FamilySpec,
    UnivariateOperator,
    reduce_family,
    scale_exponents,
    univariate_regular_exponents,
)
from .ring import RingElement, serialize

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gmexp")
    sub = ap.add_subparsers(dest="mode", required=True)

    def add_common(sp):
        sp.add_argument("--output", help="write the JSON report here instead of stdout")
        sp.add_argument("--max-rounds", type=int, default=5, help="how many windows to try")
        sp.add_argument(
            "--method", choices=["generic", "per-degree"], default="generic"
        )

    sp = sub.add_parser("exponent-test")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", default="1")
    sp.add_argument("--alphas", required=True, help="comma-separated rationals")
    sp.add_argument("--dump-matrix",
                    help="write the component columns of the first window's top image, as "
                    "exponent_test assembles them, as triplets here")
    add_common(sp)

    sp = sub.add_parser("arrangement")
    sp.add_argument("--weights", required=True, help="w0,w1,...,wn")
    sp.add_argument("--alphas", default="", help="extra classes beyond the candidates")
    sp.add_argument("--output")

    sp = sub.add_parser("family")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", default="1")
    sp.add_argument("--r", default="1")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--alphas", required=True)
    add_common(sp)

    sp = sub.add_parser("univariate")
    sp.add_argument("--L", required=True, help="e.g. 'A0=(D-1/2)*(D-1/3); A1=D^5'")
    sp.add_argument("--output")

    sp = sub.add_parser("operator-check")
    sp.add_argument("--op", required=True)
    sp.add_argument("--apply", help="a t/x expression to apply the operator to")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--output")
    return ap


def _report(mode: str, inputs: dict, body: dict, started: float) -> dict:
    return {
        "schema": 1,
        "mode": mode,
        "version": __version__,
        "inputs": inputs,
        **body,
        "elapsed_seconds": round(time.time() - started, 3),
    }


def _run_exponent_test(args, started):
    f = parse_poly(args.f, args.n, allow_ginv=True)
    g = parse_poly(args.g, args.n)
    alphas = parse_rationals(args.alphas)
    if args.dump_matrix and not alphas:
        raise ValueError("--dump-matrix needs at least one class in --alphas")
    results = []
    for alpha in alphas:
        p = ProblemInstance(n=args.n, f=f, g=g, alpha=alpha)
        if args.dump_matrix and not results:
            win = default_schedule(p)[0]
            mat = assemble_phi(p, win, p.shifts.output_window(win),
                               _select(p, win, p.grading).kept)
            with open(args.dump_matrix, "w") as fh:
                fh.write(mat.dump_triplets() + "\n")
        rep = exponent_test(p, rounds=args.max_rounds, method=args.method)
        results.append({"alpha": str(alpha), **rep.to_dict()})
    inputs = {"n": args.n, "f": args.f, "g": args.g, "alphas": args.alphas}
    return _report("exponent-test", inputs, {"results": results}, started)


def _run_arrangement(args, started):
    arr = Arrangement(tuple(parse_rationals(args.weights)))
    weights = arr.weights
    body = {
        "weights": list(weights),
        "lambda": serialize(lambda_poly(arr)),
        "candidate_exponents": sorted(str(a) for a in candidate_exponents(arr)),
        "gcd_criterion": gcd_criterion([w for w in weights if w > 0]),
        "oracle": oracle_suite(arr, parse_rationals(args.alphas)),
    }
    inputs = {"weights": args.weights, "alphas": args.alphas}
    return _report("arrangement", inputs, body, started)


def _run_family(args, started):
    p = parse_poly(args.p, args.n, allow_ginv=True)
    q = parse_poly(args.q, args.n, allow_ginv=True)
    r = parse_poly(args.r, args.n)
    fam = FamilySpec(p, q, r, args.d)
    inst, scale = reduce_family(fam)
    results = []
    for alpha in parse_rationals(args.alphas):
        pi = ProblemInstance(n=args.n, f=inst.f, g=inst.g, alpha=alpha)
        rep = exponent_test(pi, rounds=args.max_rounds, method=args.method)
        scaled = scale_exponents([alpha], scale)[0] if rep.verdict.value == "exponent" else None
        results.append(
            {
                "alpha": str(alpha),
                "family_class": str(scaled) if scaled is not None else None,
                **rep.to_dict(),
            }
        )
    body = {
        "reduced_f": serialize(inst.f),
        "reduced_g": serialize(inst.g),
        "scale": scale,
        "results": results,
    }
    inputs = {"n": args.n, "p": args.p, "q": args.q, "r": args.r, "d": args.d,
              "alphas": args.alphas}
    return _report("family", inputs, body, started)


def _run_univariate(args, started):
    op = UnivariateOperator.parse(args.L)
    rank, roots, residual = univariate_regular_exponents(op)
    body = {
        "rank": rank,
        "rational_roots": [{"root": str(r), "multiplicity": m} for r, m in roots],
        "residual_factor": [str(c) for c in residual],
    }
    return _report("univariate", {"L": args.L}, body, started)


def _run_operator_check(args, started):
    op = parse_operator(args.op)
    try:
        verdict = invertible_on(op, args.n)
    except NotDiagonalError:  # no invertibility criterion; --apply still works
        verdict = None
    witness = verdict.witness if verdict else None
    body = {
        "invertible": verdict.invertible if verdict else None,
        "witness": {"tdeg": witness.tdeg, "xdeg": list(witness.xdeg)} if witness else None,
    }
    if args.apply:
        e = parse_poly(args.apply, args.n, allow_t=True)
        body["applied"] = serialize(op_apply(op, e, RingElement.one(args.n)))
    return _report("operator-check", {"op": args.op}, body, started)


_RUNNERS = {
    "exponent-test": _run_exponent_test,
    "arrangement": _run_arrangement,
    "family": _run_family,
    "univariate": _run_univariate,
    "operator-check": _run_operator_check,
}


def main(argv=None) -> int:
    try:  # the cell cap is read before any input, so a malformed one fails every run
        window_cell_cap()
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        for path in filter(None, (getattr(args, a, None) for a in ("output", "dump_matrix"))):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise OSError(f"cannot write {path!r}: no such directory, or a directory")
        report = _RUNNERS[args.mode](args, started)
        text = json.dumps(report, indent=2, sort_keys=False)
        if getattr(args, "output", None):
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        # GM_MAX_WINDOW_CELLS is the real bound: an OOM kill cannot be caught
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:  # e.g. a window in very many variables under a raised cell cap
        print("resource limit: recursion depth exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, IndexError, OSError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return 0


if __name__ == "__main__":
    sys.exit(main())
