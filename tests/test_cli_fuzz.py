"""Fuzz the CLI through all five modes: whatever the text, main returns an
exit code (0, 2, 3 or 4) and never lets an exception escape.

Each textual option, --alphas and --weights included, is either grown from
its grammar's productions, so it reaches the preconditions and the engine,
or a soup of that grammar's words and punctuation, which mostly exercises
the parse errors.  Some draws sit around the caps instead: --L draws
operators around the A0 size cap, --f, --g and --p products of powers
around the product cap, and --weights arrangements with a large w0.
Other exponents stay small and GM_MAX_WINDOW_CELLS is low, so every query
ends quickly: in a verdict or in exit 4.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gmexp.cli import main

RATIONALS = ["0", "1", "2", "1/2", "1/3", "2/3", "-1/2", "3/2"]
PUNCT = ["(", ")", ",", ";", "=", "^", "+", "-", "*", "/", " ", "%"]


def words(*extra):
    """Token soup: up to 12 tokens from PUNCT, RATIONALS and extra."""
    token = st.sampled_from(PUNCT + RATIONALS + ["1/0"] + list(extra))
    sep = st.sampled_from(["", " "])
    return st.lists(st.tuples(token, sep), max_size=12).map(
        lambda parts: "".join(tok + s for tok, s in parts)
    )


def sentences(leaves, extend):
    """Well-formed texts grown from leaves by extend, a few nodes deep."""
    return st.recursive(st.sampled_from(leaves), extend, max_leaves=5)


def _poly(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


# products of powers of bases with several terms, around the product cap
POWER_PRODUCTS = st.lists(
    st.tuples(st.sampled_from(["x1+1", "1-x1-x2", "x1-1/3*x2+2", "2*x2-1"]), st.integers(2, 40)),
    min_size=2, max_size=3,
).map(lambda factors: "*".join(f"({b})^{k}" for b, k in factors))


def polys(*names, products=False):
    """A polynomial text; with products, one draw in six is a product of powers."""
    leaves = list(names) + RATIONALS
    texts = st.one_of(sentences(leaves, _poly), words(*names))
    if not products:
        return texts
    return st.integers(0, 5).flatmap(lambda i: texts if i else POWER_PRODUCTS)


def _operator(inner):
    rational = st.sampled_from(RATIONALS)
    leaf = st.one_of(
        st.tuples(st.sampled_from(["Dtr", "Phi"]), rational).map(lambda p: f"{p[0]}({p[1]})"),
        st.lists(rational, min_size=3, max_size=3).map(lambda a: f"ArS({', '.join(a)})"),
        st.lists(rational, min_size=4, max_size=4).map(
            lambda a: f"AbetaD({a[0]},{a[1]},1,{a[2]},{a[3]})"),
    )
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["compose", "sum"]), st.lists(inner, min_size=1, max_size=3))
        .map(lambda p: f"{p[0]}({', '.join(p[1])})"),
        st.tuples(rational, inner).map(lambda p: f"scale({p[0]}, {p[1]})"),
    )


OP_NAMES = ["Dtr", "Phi", "ArS", "AbetaD", "compose", "sum", "scale", "id", "t", "tinv", "dt",
            "dx1", "dx2", "dx"]
OPS = st.one_of(sentences(["id", "t", "tinv", "dt", "dx1", "dx2", "Dtr(1/2)"], _operator),
                words(*OP_NAMES))
EQUATIONS = st.lists(st.sampled_from(["A0", "A1", "A2"]), min_size=1, max_size=3, unique=True).flatmap(
    lambda names: st.lists(sentences(["D", *RATIONALS], _poly), min_size=len(names),
                           max_size=len(names)).map(
        lambda ps: "; ".join(f"{a}={p}" for a, p in zip(names, ps))))
# around the A0 size cap, which exits 4 when passed: an A0 of high degree, or
# a power of a base with several terms
LARGE_A0 = st.one_of(
    st.integers(150, 2000).map(lambda d: f"A0=D^{d}+1"),
    st.tuples(st.sampled_from(["D+1", "1-2*D", "D^2+D+1/2"]), st.integers(220, 5000))
    .map(lambda p: f"A0=({p[0]})^{p[1]}"),
)
L_TEXT = st.one_of(EQUATIONS, words("A0", "A1", "A2", "B0", "D", "x1"), LARGE_A0)
ALPHAS = st.one_of(st.lists(st.sampled_from(RATIONALS + ["x", ""]), max_size=3).map(",".join),
                   words("x"))
WEIGHTS = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3"]), min_size=2, max_size=3).map(",".join),
    st.lists(st.sampled_from(["0", "1", "-1", "", "a", "2/2"]), max_size=4).map(",".join),
    words("a", "1.5"),
    st.tuples(st.integers(10, 60), st.lists(st.sampled_from(["1", "2"]), min_size=1, max_size=3))
    .map(lambda p: ",".join([str(p[0]), *p[1]])),
)
N = st.integers(0, 2).map(str)


def option(name, text):
    """--name=text: a text starting with '-' is a value, not an option."""
    return f"--{name}={text}"


@st.composite
def argvs(draw):
    mode = draw(st.sampled_from(
        ["exponent-test", "arrangement", "family", "univariate", "operator-check"]
    ))
    if mode == "exponent-test":
        return [mode, option("n", draw(N)),
                option("f", draw(polys("x1", "x2", "ginv", products=True))),
                option("g", draw(polys("x1", "x2", products=True))),
                option("alphas", draw(ALPHAS)),
                option("method", draw(st.sampled_from(["generic", "per-degree"])))]
    if mode == "arrangement":
        return [mode, option("weights", draw(WEIGHTS)), option("alphas", draw(ALPHAS))]
    if mode == "family":
        return [mode, option("n", draw(N)), option("p", draw(polys("x1", "ginv", products=True))),
                option("q", draw(polys("x1", "ginv"))), option("r", draw(polys("x1"))),
                option("d", draw(st.integers(-1, 3))),
                option("alphas", draw(ALPHAS))]
    if mode == "univariate":
        return [mode, option("L", draw(L_TEXT))]
    argv = [mode, option("op", draw(OPS)), option("n", draw(N))]
    return argv + ([option("apply", draw(polys("x1", "t")))] if draw(st.booleans()) else [])


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_never_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv("GM_MAX_WINDOW_CELLS", "200")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert (code == 0) == bool(out.getvalue()), argv
