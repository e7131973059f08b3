"""The names, counts and calls the benchmark reads from gmexp.

perfbench/tracing.py wraps gmexp functions by module attribute and takes
counts from their arguments and results.  This runs one exponent_test and
one koszul_cohomology under that tracer (imported read-only from the
benchmark) and checks that every wrapped name exists and that the counted
spans carry their counts.  It also makes the calls perfbench/run.py makes
outside the tracer, in the form it makes them.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from gmexp import arrangements, engine, parser, rational, ring

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_counts_the_engine_layers():
    tracing = load_tracing()
    modules = {"engine": engine, "parser": parser, "arrangements": arrangements,
               "rational": rational, "ring": ring}
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        for name, (attrs, _counts) in tracing.WRAPPED.items():
            for mod, attr in attrs:
                assert hasattr(getattr(modules[mod], attr), "__wrapped__"), (name, mod, attr)
        f = parser.parse_poly("x1^2*(1-x1)", 1)
        p = engine.ProblemInstance(n=1, f=f, g=parser.parse_poly("1", 1), alpha="1/2")
        assert engine.exponent_test(p).cokernel_dim == 1
        dims = engine.koszul_cohomology(p, engine.default_schedule(p)[0])
        assert dims[2] == 1

    counts = {}
    for name, _t0, _t1, _parent, _query, c in tracer.spans:
        counts.setdefault(name, []).append(c)
    expected = {
        "linalg.rank_with_extension": {"input_nnz", "pivots"},
        "engine.assemble_phi": {"nnz", "cells"},
        "linalg.nullspace": {"kernel_dim"},
    }
    for name, keys in expected.items():
        assert counts.get(name), name
        for c in counts[name]:
            assert set(c) == keys and all(isinstance(v, int) for v in c.values()), (name, c)
    # one assembly per window of the verdict, and one for the Koszul window:
    # its complex, from which degree n+1 reads its columns too
    assert len(counts["engine.assemble_phi"]) == 3
    assert all(c["cells"] > 0 and c["nnz"] > 0 for c in counts["engine.assemble_phi"])
    # the commutation certificate runs once per Koszul query, also for g = 1
    assert len(counts["engine.check_row_commutation"]) == 1


def test_graded_queries_keep_one_assembly_per_window():
    # a quasi-homogeneous query assembles each window once, as before (so
    # engine.windows counts the same), but only the top weight block's cells
    tracing = load_tracing()
    modules = {"engine": engine, "parser": parser, "arrangements": arrangements,
               "rational": rational, "ring": ring}
    tracer = tracing.Tracer(modules)
    for fs, n, gs, alpha in [("x1^2", 1, "x1", "1"), ("x1^2+x2^3", 2, "1", "5/6")]:
        tracer.spans.clear()
        with tracer.installed():
            p = engine.ProblemInstance(n=n, f=parser.parse_poly(fs, n),
                                       g=parser.parse_poly(gs, n), alpha=alpha)
            rep = engine.exponent_test(p)
        names = [span[0] for span in tracer.spans]
        (test,) = [i for i, name in enumerate(names) if name == "engine.exponent_test"]
        cells = [c["cells"] for name, _t0, _t1, parent, _q, c in tracer.spans
                 if name == "engine.assemble_phi" and parent == test]
        assert len(cells) == len(rep.windows_used), fs
        full = [(n + 1) * win.size(n) for win in rep.windows_used]
        assert all(0 < c < f for c, f in zip(cells, full)), (fs, cells, full)
        assert p.grading is not None


def test_koszul_boundary_checks_are_traced():
    # x1^2 over x1 at class 1: one assembly of the whole window; degree 0
    # has no cycle outside the span of the relations, degree 1 is checked on
    # the neighbourhood of its cycles, then falls back to its whole boundary
    # matrix, and the top cokernel follows; every elimination is a counted
    # span.  At class 1/3, graded and off the weight lattice, only the
    # commutation certificate runs
    tracing = load_tracing()
    modules = {"engine": engine, "parser": parser, "arrangements": arrangements,
               "rational": rational, "ring": ring}
    tracer = tracing.Tracer(modules)
    for alpha, dims, assembled, nullspaces, eliminations in [
        ("1", {0: 0, 1: 1, 2: 0}, 1, 2, 3),
        ("1/3", {0: 0, 1: 0, 2: 0}, 0, 0, 0),
    ]:
        tracer.spans.clear()
        with tracer.installed():
            p = engine.ProblemInstance(n=1, f=parser.parse_poly("x1^2", 1),
                                       g=parser.parse_poly("x1", 1), alpha=alpha)
            win = engine.default_schedule(p)[0]
            assert engine.koszul_cohomology(p, win) == dims
        counts: dict = {}
        for name, _t0, _t1, _parent, _q, c in tracer.spans:
            counts.setdefault(name, []).append(c)
        ranks = counts.get("linalg.rank_with_extension", [])
        assert len(ranks) == eliminations  # h1 neighbourhood, h1 whole, top
        assert len(counts.get("linalg.nullspace", [])) == nullspaces  # degrees 0 and 1
        assert counts["engine.check_row_commutation"] == [None]
        cells = [c["cells"] for c in counts.get("engine.assemble_phi", [])]
        assert cells == [2 * win.size(1)] * assembled
        for c in ranks:
            assert set(c) == {"input_nnz", "pivots"} and all(isinstance(v, int) for v in c.values())


def test_run_calls_keep_working():
    # run.py passes each class as the str() of a Fraction and reads HAVE_GMPY2
    f = arrangements.lambda_poly(arrangements.Arrangement((1, 2)))
    p = engine.ProblemInstance(n=1, f=f, g=parser.parse_poly("1", 1), alpha=str(Fraction(1, 5)))
    assert p.alpha == rational.Q(1, 5)
    rep = engine.exponent_test(p, method="per-degree")
    assert rep.method == "per-degree" and rep.verdict == engine.Verdict.NOT_EXPONENT
    dims = engine.koszul_cohomology(p, engine.default_schedule(p)[0])
    assert dims and all(v == 0 for v in dims.values())
    assert isinstance(rational.HAVE_GMPY2, bool)
