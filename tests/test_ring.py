import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from gmexp import ring
from gmexp.arrangements import Arrangement, lambda_poly
from gmexp.engine import ProblemInstance
from gmexp.operators import ArS, Dtr, PhiC, apply
from gmexp.parser import parse_poly
from gmexp.rational import Q, ResourceLimitError
from gmexp.ring import (
    MAX_PRODUCT_WORK,
    DegreeWindow,
    Monomial,
    RingElement,
    clear_g,
    exact_divide,
    partial_t,
    partial_x,
    quasi_weights,
    serialize,
)


def elem(n=2, max_terms=5, allow_t=True, allow_g=True):
    coef = st.builds(Q, st.integers(-20, 20), st.integers(1, 8))
    monos = st.tuples(
        st.integers(-3, 3) if allow_t else st.just(0),
        st.tuples(*[st.integers(0, 3)] * n),
        st.integers(0, 2) if allow_g else st.just(0),
    ).map(lambda t: Monomial(*t))
    return st.dictionaries(monos, coef, max_size=max_terms).map(
        lambda d: RingElement(n, d)
    )


@given(elem(), elem(), elem())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RingElement.zero(2) == a
    assert a * RingElement.one(2) == a
    assert a - a == RingElement.zero(2)


def assert_canonical(e, n=2):
    """What the validating constructor guarantees, checked on a result that
    arithmetic built without it."""
    assert e == RingElement(n, dict(e.terms))
    for m, c in e.terms.items():
        assert type(c) is Q and c != 0
        assert len(m.xdeg) == n and m.gpow >= 0 and all(u >= 0 for u in m.xdeg)


nonint_q = st.builds(Q, st.integers(-9, 9), st.integers(2, 5)).filter(lambda q: q.denominator > 1)
any_q = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
# integers in the t-degree range of elem() make leaf eigenvalues vanish
resonant_q = st.one_of(st.integers(-4, 4).map(Q), any_q)


@given(elem(), elem(), any_q, st.integers(-3, 3), st.integers(0, 3), resonant_q, nonint_q)
def test_arithmetic_results_are_canonical(a, b, c, tpow, k, r, alpha):
    for res in (a + b, a - b, -a, a * b, a.scale(c), a.mul_t(tpow), a.shift_gpow(k)):
        assert_canonical(res)
    for op in (PhiC(r), Dtr(r), ArS(alpha, r, -alpha + Q(1, 7)), ArS(alpha, -alpha - 1, 0)):
        assert_canonical(apply(op, a))


@given(elem(allow_g=False), elem(allow_g=False))
def test_partial_t_leibniz(a, b):
    one = RingElement.one(2)
    assert partial_t(a * b) == partial_t(a) * b + a * partial_t(b)
    assert partial_t(one).is_zero()


@given(elem(allow_g=True), elem(allow_g=True), st.integers(1, 2))
def test_partial_x_leibniz(a, b, i):
    g = parse_poly("1 - x1 - x2", 2)
    assert partial_x(i, a * b, g) == partial_x(i, a, g) * b + a * partial_x(i, b, g)


def test_partial_x_quotient_rule():
    # d/dx (1/g) = -g'/g^2 for g = 1 - x
    g = parse_poly("1 - x1", 1)
    e = RingElement.monomial(1, Monomial(0, (0,), 1))  # 1/g
    got = partial_x(1, e, g)
    expected = RingElement.monomial(1, Monomial(0, (0,), 2))  # 1/g^2
    assert got == expected


def summed_partial_x(i, e, g):
    """d/dx_i as a sum of RingElements, one per term: the reference the
    single-dict accumulation of partial_x is checked against."""
    dg = ring._poly_partial(i, g)
    out = RingElement.zero(e.n)
    for m, c in e.terms.items():
        u = m.xdeg[i - 1]
        if u:
            out = out + RingElement.monomial(e.n, Monomial(m.tdeg, ring._dec(m.xdeg, i - 1),
                                                           m.gpow), c * u)
        if m.gpow:
            out = out + RingElement.monomial(
                e.n, Monomial(m.tdeg, m.xdeg, m.gpow + 1), -c * m.gpow) * dg
    return out


@given(elem(allow_g=True), st.integers(1, 2),
       st.sampled_from(["1 - x1 - x2", "x1", "x1*x2 + 3*x2^2", "1"]))
def test_partial_x_adds_no_ring_elements(e, i, gs):
    # every term goes into one dict, so a derivative is linear in f's terms:
    # no RingElement.__add__ per g-layer term, and the same result as the sum
    g = parse_poly(gs, 2)
    want = summed_partial_x(i, e, g)
    calls = []
    real = RingElement.__add__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    RingElement.__add__ = counting  # by hand: Hypothesis runs many examples per fixture
    try:
        got = partial_x(i, e, g)
    finally:
        RingElement.__add__ = real
    assert got == want
    assert_canonical(got)
    assert calls == []


def test_partial_x_keeps_the_product_cap(monkeypatch):
    # each g-layer term's product with d_i g still goes through __mul__
    g, f, df = (parse_poly(s, 1) for s in ("1 - x1", "x1^3", "3*x1^2"))
    monkeypatch.setattr(ring, "MAX_PRODUCT_WORK", 0)
    with pytest.raises(ResourceLimitError):
        partial_x(1, RingElement.monomial(1, Monomial(0, (2,), 1)), g)  # x^2 / g
    assert partial_x(1, f, g) == df  # no g-layer: no product


def test_pow_and_scale():
    x = RingElement.var(2, 1)
    y = RingElement.var(2, 2)
    assert (x + y) ** 2 == x * x + x * y.scale(2) + y * y
    assert (x + y) ** 0 == RingElement.one(2)
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_pow_stops_after_its_last_bit(monkeypatch):
    # e^16: the squarings e^2, e^4, e^8, e^16 and 1 * e^16, and no e^32
    e = parse_poly("x1+x2+1", 2)
    expected = RingElement(2, {Monomial(0, (i, j), 0): math.comb(16, i) * math.comb(16 - i, j)
                               for i in range(17) for j in range(17 - i)})
    products = []
    mul = RingElement.__mul__
    monkeypatch.setattr(RingElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert e**16 == expected
    assert len(products) == 5


def test_clear_g_takes_one_product_by_g_per_layer(monkeypatch):
    # the numerator of 1 + x1/g^20 is g^20 + x1, built by Horner's rule: one
    # product by g for each of the layers 0..20, and no power of g
    f = parse_poly("1+x1*ginv^20", 3, allow_ginv=True)
    g = parse_poly("x1+x2+x3+1", 3)
    started = time.perf_counter()
    p = ProblemInstance(n=3, f=f, g=g, alpha=0)
    assert time.perf_counter() - started < 1
    assert p.f.max_gpow() == 20 and len(p.f.terms) == 1771
    products = []
    mul = RingElement.__mul__
    monkeypatch.setattr(RingElement, "__mul__", lambda a, b: products.append(b is g) or mul(a, b))
    assert clear_g(f, g) == p.f
    assert products == [True] * 21


def test_lambda_poly_past_the_work_cap_is_refused():
    # (1 - x1 - x2 - x3)^40 stops at its squaring (...)^8 * (...)^8
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="165 by 165 terms"):
        lambda_poly(Arrangement((40, 1, 1, 1)))
    assert time.perf_counter() - started < 1


def test_clear_g_cancels_layers():
    g = parse_poly("x1", 1)
    # (x^2/g) clears to x
    e = parse_poly("x1^2*ginv", 1, allow_ginv=True)
    assert clear_g(e, g) == parse_poly("x1", 1)
    # x/g does not clear further than x/g... it clears to 1
    e = parse_poly("x1*ginv", 1, allow_ginv=True)
    assert clear_g(e, g) == RingElement.one(1)
    # 1/g stays
    e = RingElement.monomial(1, Monomial(0, (0,), 1))
    assert clear_g(e, g) == e


def test_clear_g_common_denominator():
    g = parse_poly("1 - x1", 1)
    # x/g + 1 = (x + 1 - x)/g = 1/g
    e = parse_poly("x1*ginv + 1", 1, allow_ginv=True)
    assert clear_g(e, g) == RingElement.monomial(1, Monomial(0, (0,), 1))


@given(elem(allow_g=False, allow_t=False), st.integers(1, 2))
def test_exact_divide_roundtrip(a, which):
    g = parse_poly("1 - x1 - x2" if which == 1 else "x1 + x2^2", 2)
    quo = exact_divide(a * g, g)
    assert quo == a


def max_scan_divide(p, g, g_lead):
    """The reference for ring._divide_xpoly: reduction at max(p) of the whole
    remainder at every step."""
    p = dict(p)
    quo = {}
    while p:
        lead = max(p)
        diff = tuple(a - b for a, b in zip(lead, g_lead))
        if any(d < 0 for d in diff):
            return None
        coef = p[lead] / g[g_lead]
        quo[diff] = quo.get(diff, Q(0)) + coef
        for gm, gc in g.items():
            m = tuple(a + b for a, b in zip(diff, gm))
            s = p.get(m, Q(0)) - coef * gc
            if s == 0:
                p.pop(m, None)
            else:
                p[m] = s
    return quo


@given(elem(n=3, max_terms=8, allow_g=False, allow_t=False),
       elem(n=3, max_terms=4, allow_g=False, allow_t=False).filter(lambda g: not g.is_zero()),
       elem(n=3, max_terms=3, allow_g=False, allow_t=False))
def test_heap_division_matches_the_max_scan(a, g, r):
    # exact (a * g) and inexact (a * g + r) divisions: the same quotient, or
    # the same refusal, as reducing at the max of the whole remainder
    g_terms = {m.xdeg: c for m, c in g.terms.items()}
    g_lead = max(g_terms)
    for p in (a * g, a * g + r):
        terms = {m.xdeg: c for m, c in p.terms.items()}
        got = ring._divide_xpoly(terms, g_terms, g_lead)
        assert got == max_scan_divide(terms, g_terms, g_lead)
    assert ring._divide_xpoly({m.xdeg: c for m, c in (a * g).terms.items()},
                              g_terms, g_lead) == {m.xdeg: c for m, c in a.terms.items()}


def test_product_work_counts_the_variables(monkeypatch):
    # a product at the cap took about 0.1 s in 1-10 variables and 0.48 s in
    # 200; the measure's factor for n, max(60, n + 50) / 60, is 1 up to 10
    # variables and refuses this product in 200, which the bare measure
    # accepts, before any term product is formed
    def formed(_items):
        raise AssertionError("the product was formed")

    n = 200
    a = RingElement(n, {Monomial(0, tuple(int(j == i) for j in range(n)), 0): 1
                        for i in range(-1, n)})
    b = RingElement(n, {Monomial(0, (k,) + (0,) * (n - 1), 0): 1 for k in range(2, 62)})
    bare = 201 * 60 * (2 + 1024) ** 2
    assert bare <= MAX_PRODUCT_WORK < ring._product_work(a, b) == bare * 250 // 60
    monkeypatch.setattr(ring, "_collect", formed)
    with pytest.raises(ResourceLimitError, match="in 200 variables"):
        a * b
    for n in (1, 10):
        x = RingElement(n, {Monomial(0, (k,) + (0,) * (n - 1), 0): 1 for k in range(201)})
        assert ring._product_work(x, x) == 201 * 201 * (2 + 1024) ** 2


def test_window_monomials():
    w = DegreeWindow(-1, 1, 2, 0)
    monos = list(w.monomials(1))
    assert len(monos) == w.size(1) == 9
    assert all(-1 <= m.tdeg <= 1 and m.total_xdeg <= 2 and m.gpow == 0 for m in monos)
    assert len(set(monos)) == len(monos)


@pytest.mark.parametrize("n", range(4))
def test_window_layer_inverts_layout(n):
    # layer[q % tsize] is the (u, m) at position q of every t-layer: the
    # inverse of layout, in the order of monomials, shared like layout
    for xmax in (0, 1, 2, 5):
        for gmax in (0, 3):
            w = DegreeWindow(-1, 1, xmax, gmax)
            xrow, tsize = w.layout(n)
            layer = w.layer(n)
            assert len(layer) == tsize and len(set(layer)) == tsize
            assert [xrow[u] + m for u, m in layer] == list(range(tsize))
            assert [(m.tdeg, m.xdeg, m.gpow) for m in w.monomials(n)] == [
                (k, u, m) for k in (-1, 0, 1) for u, m in layer]
            assert DegreeWindow(3, 7, xmax, gmax).layer(n) is layer


def test_window_expand_shrink():
    w = DegreeWindow(-2, 3, 4, 1)
    assert w.expand(1, 2, 1) == DegreeWindow(-3, 4, 6, 2)
    assert w.shrink(2, 3, 1) == DegreeWindow(0, 1, 1, 0)
    with pytest.raises(ValueError):
        DegreeWindow(2, 1, 0)


@given(elem(n=2))
def test_serialize_parse_roundtrip(e):
    src = serialize(e)
    back = parse_poly(src, 2, allow_t=True, allow_ginv=True)
    assert back == e


def test_serialize_canonical():
    e = parse_poly("3/2*t^-1*x1^2*x2 - x1 + 2", 2, allow_t=True)
    assert serialize(e) == "3/2*t^-1*x1^2*x2 + 2 - x1"


def weights_of(fs, n, gs="1"):
    return quasi_weights(parse_poly(fs, n), parse_poly(gs, n))


def test_quasi_weights_of_the_simple_singularities():
    # every term of f has weight 1 and g = 1 has weight 0
    for a in range(2, 8):
        for b in range(a, 8):
            assert weights_of(f"x1^{a}+x2^{b}", 2) == ((Q(1, a), Q(1, b)), 0), (a, b)
    assert weights_of("x1^2*x2+x2^3", 2) == ((Q(1, 3), Q(1, 3)), 0)  # D4
    assert weights_of("x1^3+x2^4", 2) == ((Q(1, 3), Q(1, 4)), 0)  # E6
    assert weights_of("x1^3+x2^5", 2) == ((Q(1, 3), Q(1, 5)), 0)  # E8
    assert weights_of("x1^2+x2^2+x3^3", 3) == ((Q(1, 2), Q(1, 2), Q(1, 3)), 0)


def test_quasi_weights_with_g():
    # x^w over k[x, 1/x]: g = x has the weight delta = w1 = 1/w
    for w in range(1, 6):
        assert weights_of(f"x1^{w}", 1, "x1") == ((Q(1, w),), Q(1, w)), w
    # a g-layer counts -delta: x1^2 * g^-1 with g = x1 + x2
    f = parse_poly("x1^3*ginv", 2, allow_ginv=True)
    assert quasi_weights(f, parse_poly("x1+x2", 2)) == ((Q(1, 2), Q(1, 2)), Q(1, 2))


def test_quasi_weights_none():
    # no solution, or a line of them
    for fs, n, gs in [("x1^2*(1-x1)", 1, "1"), ("x1^2", 1, "1-x1"), ("1+x1", 1, "1"),
                      ("x1^2*x2", 2, "1"), ("x1^2", 2, "1"), ("0", 1, "1")]:
        assert weights_of(fs, n, gs) is None, (fs, n, gs)
    # every arrangement x^w (1 - sum x)^w0 with positive weights
    for n in (1, 2, 3):
        for ws in itertools.product(range(1, 5), repeat=n + 1):
            assert quasi_weights(lambda_poly(Arrangement(ws)), RingElement.one(n)) is None, ws
