import time

import pytest

from gmexp import ring
from gmexp.engine import ResourceLimitError
from gmexp.parser import ParseError, parse_poly, parse_rationals
from gmexp.rational import Q
from gmexp.ring import MAX_PRODUCT_WORK, Monomial, RingElement, serialize


def test_expansion_examples():
    e = parse_poly("x1*x2*(1-x1-x2)", 2)
    assert len(e.terms) == 3
    assert serialize(e) == "x1*x2 - x1*x2^2 - x1^2*x2"

    e = parse_poly("x1^2*(1-x1)", 1)
    assert serialize(e) == "x1^2 - x1^3"

    e = parse_poly("3/2*x1 + x2^0", 2)
    assert e == parse_poly("1 + 3/2*x1", 2)


def test_rational_coefficients():
    e = parse_poly("2/4", 1)
    assert e == RingElement.constant(1, Q(1, 2))
    e = parse_poly("-1/3*x1", 1)
    assert e.terms[Monomial(0, (1,), 0)] == Q(-1, 3)
    # unary minus binds looser than '^' and repeats without recursing
    assert parse_poly("--x1^2", 1) == parse_poly("x1^2", 1)
    assert parse_poly("-" * 3001 + "x1", 1) == -parse_poly("x1", 1)


def test_t_and_ginv_gating():
    e = parse_poly("t^-2 + t*x1", 1, allow_t=True)
    assert Monomial(-2, (0,), 0) in e.terms
    with pytest.raises(ParseError):
        parse_poly("t", 1)
    with pytest.raises(ParseError):
        parse_poly("ginv", 1)
    e = parse_poly("x1*ginv^2", 1, allow_ginv=True)
    assert e.terms == {Monomial(0, (1,), 2): Q(1)}


def test_negative_exponent_only_on_t():
    with pytest.raises(ParseError):
        parse_poly("x1^-1", 1, allow_t=True)


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + @", 1)
    assert exc.value.position == 5

    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + ", 1)
    assert "expected" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_poly("x3", 2)
    assert "unknown variable" in str(exc.value)

    with pytest.raises(ParseError):
        parse_poly("(x1", 1)

    with pytest.raises(ParseError):
        parse_poly("1/0", 1)


def test_rational_lists():
    # the reader of --alphas and --weights: the same rationals as in a polynomial
    assert parse_rationals("") == [] and parse_rationals("  ") == []
    assert parse_rationals("1/2, -3 ,4 / 6") == [Q(1, 2), Q(-3), Q(2, 3)]
    for src, position in [("1/2,,1/3", 4), ("1/2,", 4), (",", 0), ("1/0", 2), ("1 2", 2),
                          ("--1", 1), ("1/-2", 2), ("1/x", 2), ("1.5", 1)]:
        with pytest.raises(ParseError) as exc:
            parse_rationals(src)
        assert exc.value.position == position, src


def test_exponents_are_integers():
    for src, position in [("x1^1/2", 3), ("x1^-1", 3), ("t^1/0", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(src, 1, allow_t=True)
        assert exc.value.position == position, src
    assert parse_poly("t^-2*x1^-0", 1, allow_t=True) == parse_poly("t^-2", 1, allow_t=True)


def test_precedence_and_unary_minus():
    assert parse_poly("-x1^2", 1) == -parse_poly("x1^2", 1)
    assert parse_poly("2*x1 + 3*x1", 1) == parse_poly("5*x1", 1)
    assert parse_poly("(1 + x1)^3", 1) == parse_poly("1 + 3*x1 + 3*x1^2 + x1^3", 1)


def test_var_names_override():
    e = parse_poly("(D - 1/2)*(D - 1/3)", 1, var_names={"D": 0})
    assert e == parse_poly("x1^2 - 5/6*x1 + 1/6", 1)


def test_powers_past_the_work_cap_are_refused_before_expansion(monkeypatch):
    # len(a) * len(b) * (bits_a + 1024) * (bits_b + 1024) of each product
    # decides, before it is formed: (x1+1)^217 ends in (x1+1)^89 * (x1+1)^128,
    # the last such product of powers of x1+1 within the cap, and (x1+1)^218
    # in (x1+1)^90 * (x1+1)^128, past it
    assert 90 * 129 * (87 + 1024) * (126 + 1024) <= MAX_PRODUCT_WORK
    assert MAX_PRODUCT_WORK < 91 * 129 * (88 + 1024) * (126 + 1024)
    x = parse_poly("x1+1", 1)
    a, b = parse_poly("(x1+1)^90", 1), parse_poly("(x1+1)^128", 1)
    assert len(a.terms) * len(b.terms) == 91 * 129
    assert max(c.numerator.bit_length() + 1 for c in b.terms.values()) == 126
    formed = []
    real_collect = ring._collect
    monkeypatch.setattr(ring, "_collect", lambda items: formed.append(1) or real_collect(items))
    assert len((a * x).terms) == 92 and formed == [1]
    with pytest.raises(ResourceLimitError, match="91 by 129 terms"):
        a * b
    assert formed == [1]  # refused before any coefficient product
    monkeypatch.undo()
    for src, n in (("(x1+1)^1000", 1), ("(x1+1)^218", 1), ("(x1+x2+x3+1)^16", 3),
                   ("((x1+1)^200)^2", 1), ("7^1000000000", 1), ("(x1+x2)^10000000000", 2)):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            parse_poly(src, n)
        assert time.perf_counter() - started < 1, src
    # the worst accepted powers, and those the tests and the README use, parse
    assert len(parse_poly("(1-x1-x2-x3)^7", 3).terms) == 120
    assert parse_poly("10^30", 1) == RingElement.constant(1, Q(10**30))
    assert parse_poly("D^2000", 1, var_names={"D": 0}).max_xdeg() == 2000
    assert parse_poly("0^0 + (x1+1)^0", 1) == RingElement.constant(1, Q(2))
    for src, n in (("(x1+1)^217", 1), ("(x1+x2+x3+1)^8", 3), ("(x1-12345/677)^79", 1)):
        started = time.perf_counter()
        parse_poly(src, n)
        assert time.perf_counter() - started < 1, src


def test_a_product_of_powers_is_refused_before_expansion():
    # each power is well inside the cap, but (x1+1)^40 * (x2+1)^40, 1681
    # terms, times (x3+1)^40 would form 68,921: that product is refused
    # (k = 22 is the last k whose product is formed)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="1681 by 41 terms"):
        parse_poly("(x1+1)^40*(x2+1)^40*(x3+1)^40", 3)
    assert time.perf_counter() - started < 1
    assert len(parse_poly("(x1+1)^22*(x2+1)^22*(x3+1)^22", 3).terms) == 23**3
    with pytest.raises(ResourceLimitError):
        parse_poly("(x1+1)^23*(x2+1)^23*(x3+1)^23", 3)
