import hashlib
import json
import time

import pytest

from gmexp import cli, engine
from gmexp.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_exponent_test_mode(capsys):
    code, out, _ = run_cli(
        capsys, "exponent-test", "--n", "1", "--f", "x1^2*(1-x1)", "--alphas", "1/2,1/3"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1 and rep["mode"] == "exponent-test"
    by_alpha = {r["alpha"]: r for r in rep["results"]}
    assert by_alpha["1/2"]["verdict"] == "exponent"
    assert by_alpha["1/2"]["cokernel_dim"] == 1
    assert by_alpha["1/3"]["verdict"] == "not-exponent"


def test_arrangement_mode(capsys):
    code, out, _ = run_cli(capsys, "arrangement", "--weights", "1,1,1", "--alphas", "1/3")
    assert code == 0
    rep = json.loads(out)
    assert rep["candidate_exponents"] == ["1"]
    assert rep["gcd_criterion"] is True
    oracle = {r["alpha"]: r for r in rep["oracle"]}
    assert oracle["1/3"]["verdict"] == "not-exponent" and oracle["1/3"]["agree"]


def test_family_mode(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--n", "1", "--p", "x1^2", "--d", "2", "--alphas", "1/2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["scale"] == 2 and rep["reduced_f"] == "x1^2"
    res = rep["results"][0]
    assert res["verdict"] == "exponent" and res["family_class"] == "1"


def test_univariate_mode(capsys):
    code, out, _ = run_cli(capsys, "univariate", "--L", "A0=(D-1/2)*(D-1/3)")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2
    assert {r["root"] for r in rep["rational_roots"]} == {"1/2", "1/3"}


def test_operator_check_mode(capsys):
    code, out, _ = run_cli(
        capsys, "operator-check", "--op", "Dtr(1/2)", "--apply", "t^2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["invertible"] is True and rep["applied"] == "5/2*t^2"

    code, out, _ = run_cli(capsys, "operator-check", "--op", "Dtr(-2)")
    rep = json.loads(out)
    assert rep["invertible"] is False and rep["witness"]["tdeg"] == 2

    code, out, _ = run_cli(capsys, "operator-check", "--op", "scale(0, Dtr(1/2))")
    rep = json.loads(out)
    assert rep["witness"] == {"tdeg": 0, "xdeg": [0]}

    # operators without an invertibility criterion can still be applied
    for op, e, applied in [("sum(dt, t)", "t", "1 + t^2"), ("dx1", "x1^2", "2*x1")]:
        code, out, _ = run_cli(capsys, "operator-check", "--op", op, "--apply", e)
        assert code == 0
        rep = json.loads(out)
        assert rep["invertible"] is None and rep["witness"] is None
        assert rep["applied"] == applied


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1^", "--alphas", "1")
    assert code == 2 and "parse error" in err

    # operator syntax errors are parse errors too
    for op in ("Dtr(1", "Dtr(1))", "foo(1)", "dx", "%"):
        code, _, err = run_cli(capsys, "operator-check", "--op", op)
        assert code == 2 and "parse error" in err, op

    # nesting past the parsers' bound is a parse error, not a recursion overflow;
    # 50 levels still parse
    for depth, want in ((3000, 2), (50, 0)):
        f = "(" * depth + "x1" + ")" * depth
        code, _, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", f, "--alphas", "1")
        assert code == want and ("parse error" in err) == (want == 2), depth
        op = "compose(" * depth + "id" + ")" * depth
        code, _, err = run_cli(capsys, "operator-check", "--op", op)
        assert code == want and ("parse error" in err) == (want == 2), depth

    # a zero denominator is a parse error at the denominator, in every option
    for argv, position in (
        (("exponent-test", "--n", "1", "--f", "x1^2", "--alphas", "1/0"), 2),
        (("operator-check", "--op", "Dtr(1/0)"), 6),
        (("exponent-test", "--n", "1", "--f", "1/0", "--alphas", "1"), 2),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"zero denominator at position {position}" in err

    code, _, err = run_cli(capsys, "arrangement", "--weights", "1", "--alphas", "")
    assert code == 3 and "precondition" in err

    # an AbetaD index outside x_1..x_n or not an integer, too few windows,
    # and a leaf with the wrong number of arguments
    for argv in (
        ("exponent-test", "--n", "1", "--f", "x1^2", "--alphas", "1/2", "--max-rounds", "1"),
        ("operator-check", "--op", "AbetaD(1/2,1/3,0,0,0)", "--apply", "t*x1"),
        ("operator-check", "--op", "AbetaD(1/2,1/2,3,0,0)"),
        ("operator-check", "--op", "AbetaD(1/2,1/3,3/2,0,0)", "--apply", "t*x1"),
        ("operator-check", "--op", "Dtr(1,2)"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "precondition" in err

    # an A0 past the size cap, and a product too large to form in any option,
    # lambda of an arrangement included, each refused in under 1 s
    for argv in (("univariate", "--L", "A0=D^2000+1"),
                 ("exponent-test", "--n", "1", "--f", "(x1+1)^1000", "--alphas", "1/2"),
                 ("arrangement", "--weights", "40,1,1,1")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == "" and "resource" in err
        assert time.perf_counter() - started < 1, argv

    # a window in 1000 variables is refused by the default cell cap before
    # any of its cells is enumerated
    monkeypatch.delenv("GM_MAX_WINDOW_CELLS", raising=False)
    code, out, err = run_cli(capsys, "exponent-test", "--n", "1000", "--f", "x1",
                             "--alphas", "1/2")
    cap = engine.DEFAULT_MAX_WINDOW_CELLS
    assert code == 4 and out == "" and f"cap is {cap} (GM_MAX_WINDOW_CELLS sets it)" in err

    # a report or matrix path that cannot be written is a precondition
    # violation; a missing directory is found before the run
    def no_run(*_args, **_kwargs):
        raise AssertionError("the run started")

    missing = str(tmp_path / "no-such-dir" / "out.json")
    query = ("exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/2")
    with monkeypatch.context() as m:
        m.setattr(cli, "exponent_test", no_run)
        m.setattr(cli, "univariate_regular_exponents", no_run)
        for argv in (
            (*query, "--output", missing),
            (*query, "--dump-matrix", missing),
            ("univariate", "--L", "A0=D-1/2", "--output", str(tmp_path)),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and "precondition" in err, argv

    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", "5")
    code, _, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1", "--alphas", "1")
    assert code == 4 and "resource" in err


def test_malformed_cell_cap_is_a_parse_error(capsys, monkeypatch):
    # read once at start, before any option: even a malformed --f is not reached
    for cap in ("abc", "-1", "1.5", "", " 5"):
        monkeypatch.setenv("GM_MAX_WINDOW_CELLS", cap)
        for f in ("x1", "x1+"):
            code, out, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", f,
                                     "--alphas", "1/2")
            assert code == 2 and out == "" and "GM_MAX_WINDOW_CELLS" in err, (cap, f, err)
    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", "0")
    code, _, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/2")
    assert code == 4 and "resource" in err


def test_a_window_past_the_entry_cap_is_refused_before_assembly(capsys, monkeypatch):
    # 1,747,200 cells pass the default cell cap, but f - t has 1,772 terms:
    # the window's cells times its longest stencil pass MAX_WINDOW_ENTRIES,
    # and the query exits 4 before any column is built, which a larger cell
    # cap does not change
    def no_columns(*_args, **_kwargs):
        raise AssertionError("a column was built")

    monkeypatch.setattr(engine, "_stencil_columns", no_columns)
    argv = ("exponent-test", "--n", "3", "--f", "1+x1*ginv^20", "--g", "x1+x2+x3+1",
            "--alphas", "1/2")
    for cap in (None, "100000000"):
        if cap is None:
            monkeypatch.delenv("GM_MAX_WINDOW_CELLS", raising=False)
        else:
            monkeypatch.setenv("GM_MAX_WINDOW_CELLS", cap)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == "" and "MAX_WINDOW_ENTRIES" in err, err
        assert time.perf_counter() - started < 10
    assert 1_747_200 <= engine.DEFAULT_MAX_WINDOW_CELLS
    assert 1_747_200 * 1_772 > engine.MAX_WINDOW_ENTRIES


def test_alphas_and_weights_are_read_as_rational_lists(capsys):
    # a malformed item is a parse error at its offset, an empty one included
    for argv, position in [
        (("exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/x"), 2),
        (("exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/2,,1/3"), 4),
        (("exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/2,"), 4),
        (("arrangement", "--weights", "1,,2"), 2),
        (("arrangement", "--weights", "1, ,2"), 3),
        (("arrangement", "--weights", "1.5,1"), 1),
        (("arrangement", "--weights", "1,1", "--alphas", "1/3;1/2"), 3),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"at position {position}" in err, argv

    # a well-formed rational that is not a nonnegative integer weight is a precondition
    for weights in ("1/2,1", "-1,2"):
        code, out, err = run_cli(capsys, "arrangement", f"--weights={weights}")
        assert code == 3 and out == "" and "precondition" in err, weights

    # whitespace is free between tokens, and an integral rational is its integer
    code, out, _ = run_cli(capsys, "arrangement", "--weights", " 2/2 , 2 ", "--alphas", " 1 / 3 ")
    rep = json.loads(out)
    assert code == 0 and rep["weights"] == [1, 2] and "1/3" in {r["alpha"] for r in rep["oracle"]}


def test_op_allows_whitespace_in_rationals(capsys):
    # --op reads the polynomial tokens, so whitespace is free as it is in --f
    for op, applied in [("Dtr(1 / 2)", "5/2*t^2"), ("Dtr(- 1/2)", "3/2*t^2"),
                        ("scale( 2 , Dtr( 1/2 ) )", "5*t^2")]:
        code, out, _ = run_cli(capsys, "operator-check", "--op", op, "--apply", "t^2")
        assert code == 0 and json.loads(out)["applied"] == applied, op


def test_L_error_position_is_an_offset_into_the_argument(capsys):
    code, _, err = run_cli(capsys, "univariate", "--L", "A0=(D-1/2)*(D-1/3); A1=D^")
    assert code == 2 and "at position 25" in err


def test_L_refuses_a_repeated_coefficient(capsys):
    code, out, err = run_cli(capsys, "univariate", "--L", "A0=D; A0=D^2")
    assert code == 2 and out == "" and "A0 given twice at position 6" in err


def test_memory_error_is_a_resource_limit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "exponent_test", exhausted)
    code, out, err = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1", "--alphas", "1/2")
    assert code == 4 and out == "" and "resource" in err


def _options(parser):
    """{subcommand: option strings} of an argparse parser, help excluded."""
    (sub,) = [a for a in parser._actions if a.dest == "mode"]
    return {
        mode: sorted(s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help"))
        for mode, sp in sub.choices.items()
    }


def test_option_surface(capsys):
    # windows come from the shift analysis: no flag shapes them, and no
    # subcommand takes a flag it does not read
    opts = _options(_build_parser())
    assert opts == {
        "exponent-test": ["--alphas", "--dump-matrix", "--f", "--g", "--max-rounds",
                          "--method", "--n", "--output"],
        "arrangement": ["--alphas", "--output", "--weights"],
        "family": ["--alphas", "--d", "--max-rounds", "--method", "--n", "--output",
                   "--p", "--q", "--r"],
        "univariate": ["--L", "--output"],
        "operator-check": ["--apply", "--n", "--op", "--output"],
    }
    assert sum(map(len, opts.values())) == 26

    # window shapes that gave a wrong, stabilized not-exponent are refused
    for argv, shape in [
        (("--f", "x1^3", "--g", "x1", "--alphas", "1/3"), ("--t-step", "0")),
        (("--f", "x1^2", "--g", "x1", "--alphas", "1"), ("--x-start", "10")),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["exponent-test", "--n", "1", *argv, *shape])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "exponent-test", "--n", "1", *argv)
        (res,) = json.loads(out)["results"]
        assert code == 0 and (res["verdict"], res["cokernel_dim"]) == ("exponent", 1)


def test_json_determinism(capsys, tmp_path):
    argv = ["exponent-test", "--n", "1", "--f", "x1^3", "--alphas", "1/3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


# (n, f, g, alphas, sha256 and line count of the --dump-matrix text, the JSON
# report outside elapsed_seconds): an ungraded f, a graded one and one with a
# g-layer, pinned to the output of the Fraction-valued assembly that the
# reduced int pairs replaced, which printed the same bytes, less the columns
# of component 0 at the top t-layer, which were empty (8 of 97 and 36 of 504
# columns; the graded block has none there), with the later columns
# renumbered
PINNED = [
    ("1", "x1^2*(1-x1)^3", "1", "1/2,1/5",
     "ea8396f4da246e1f59e29f2feb1da3e97218360343c80a1f4683cc0a91f0e630", 431,
     "bd3eea9370a75cc1add647ce2089774d2bc9d85e02fc405311e3989a1310a000"),
    ("2", "x1^2+x2^3", "1", "5/6,1/2",
     "03b8f2b7c44a5eae3b692c0858e9e813f1057f5f6c81ec6946c892d1bfa6247e", 28,
     "cb65451f54c50002095d495facb3d36fcd2fd06ce9008b3adf0a6b29d9192527"),
    ("1", "x1^2*ginv", "1-x1", "1/2",
     "a1a6344b9f78e58e750247a3b51947e693e0c6d444fdeeb910e8a1078d5bc968", 1261,
     "a1fff680aacbca658de82d43b235ebfa1e367fe54aa0d9f60767d5edd5b1963c"),
]


@pytest.mark.parametrize("n, fs, gs, alphas, dump_sha, lines, report_sha", PINNED,
                         ids=[case[1] for case in PINNED])
def test_dump_and_report_are_pinned(capsys, tmp_path, n, fs, gs, alphas, dump_sha, lines,
                                    report_sha):
    dump = tmp_path / "mat.txt"
    code, out, _ = run_cli(capsys, "exponent-test", "--n", n, "--f", fs, "--g", gs,
                           "--alphas", alphas, "--dump-matrix", str(dump))
    assert code == 0
    text = dump.read_text()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text.splitlines())) == (
        dump_sha, lines)
    rep = json.loads(out)
    rep.pop("elapsed_seconds")
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == report_sha


def test_matrix_dump(capsys, tmp_path, monkeypatch):
    # the dump is the first-window matrix that the engine itself eliminates
    assembled = []
    real = engine.assemble_phi
    monkeypatch.setattr(
        engine, "assemble_phi",
        lambda *args, **kwargs: assembled.append(real(*args, **kwargs)) or assembled[-1],
    )
    # x1 and x1^3 at 1/2 are off their weight lattices: an empty graded block;
    # x1^2 over x1 is graded, x1^2*(1-x1) takes the full window
    cases = [("x1", "1", True), ("x1^3", "1", True), ("x1^2", "x1", False),
             ("x1^2*(1-x1)", "1", False)]
    for fs, gs, empty in cases:
        dump = tmp_path / "mat.txt"
        assembled.clear()
        code, _, _ = run_cli(
            capsys, "exponent-test", "--n", "1", "--f", fs, "--g", gs, "--alphas", "1/2",
            "--dump-matrix", str(dump),
        )
        assert code == 0
        text = dump.read_text()
        assert text == assembled[0].dump_triplets() + "\n"
        lines = text.splitlines()
        nrows, ncols = map(int, lines[0].split())
        assert nrows > 0
        if empty:
            assert lines == [f"{nrows} 0"], fs
            continue
        assert ncols > 0 and len(lines) > 1
        for line in lines[1:]:
            r, c, v = line.split()
            assert 0 <= int(r) < nrows and 0 <= int(c) < ncols


def test_alpha_is_read_as_its_class(capsys):
    # the windows are centred for a class in (0, 1]; another representative
    # of the same class must give the same report
    code, out, _ = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1^2",
                           "--alphas", "1/2,11/2")
    assert code == 0
    half, shifted = json.loads(out)["results"]
    assert shifted["alpha"] == "11/2"
    assert shifted["verdict"] == "exponent" and shifted["estimates"] == [1, 1]
    assert {**shifted, "alpha": "1/2"} == half
    code, out, _ = run_cli(capsys, "exponent-test", "--n", "1", "--f", "x1^2", "--g", "x1",
                           "--alphas", "3/2")
    assert code == 0
    (rep,) = json.loads(out)["results"]
    assert (rep["verdict"], rep["cokernel_dim"]) == ("exponent", 1)


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys, "univariate", "--L", "A0=D-1/2", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    rep = json.loads(out_path.read_text())
    assert rep["rank"] == 1
