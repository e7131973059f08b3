import pytest
from hypothesis import given, settings, strategies as st

from gmexp.operators import (
    AbetaD,
    ArS,
    Dtr,
    OperatorError,
    PhiC,
    UndefinedInverseError,
    apply,
    check_commutation,
    commutation_identities,
    invertible_on,
    parse_operator,
)
from gmexp.parser import ParseError, parse_poly
from gmexp.rational import Q, is_integer
from gmexp.ring import DegreeWindow, Monomial, RingElement


def tk(k, n=1, xdeg=None):
    return RingElement.monomial(n, Monomial(k, xdeg if xdeg else (0,) * n, 0))


rationals = st.builds(Q, st.integers(-8, 8), st.integers(1, 6))
nonint = rationals.filter(lambda q: not is_integer(q))


@given(st.integers(-6, 6), rationals)
def test_dtr_eigenvalue(k, r):
    got = apply(Dtr(r), tk(k))
    assert got == tk(k).scale(k + r)


@given(st.integers(-6, 6), rationals)
def test_phi_action(k, c):
    got = apply(PhiC(c), tk(k))
    assert got == tk(k - 1).scale(k + c)


@given(st.integers(-6, 6), nonint, rationals)
def test_ars_action(k, a, r):
    got = apply(ArS(a, r, 0), tk(k))
    assert got == tk(k + 1).scale(Q(k + 1 + a + r) / (k + 1 + a))


def test_ars_worked_example():
    # (t + 2/3 phi_{1/3}^{-1}) 1 = (1 + 1/3 + 2/3)/(1 + 1/3) t = 3/2 t
    got = apply(ArS(Q(1, 3), Q(2, 3), 0), tk(0))
    assert got == tk(1).scale(Q(3, 2))


@given(st.integers(-5, 5), st.integers(0, 4), nonint, rationals, rationals)
def test_abetad_action(k, u, a, beta, r):
    m = RingElement.monomial(1, Monomial(k, (u,), 0))
    got = apply(AbetaD(a, beta, 1, r, 0), m)
    num = k + 1 + a + beta * (u + r)
    want = RingElement.monomial(1, Monomial(k + 1, (u,), 0), Q(num) / (k + 1 + a))
    assert got == want


def test_phi_as_connection_minus_residue():
    # PhiC(-alpha) = d/dt - alpha/t on t^k
    alpha = Q(1, 2)
    got = apply(PhiC(-alpha), tk(3))
    assert got == tk(2).scale(3 - alpha)


def test_undefined_inverse_rejected():
    with pytest.raises(UndefinedInverseError):
        ArS(1, 1, 0)
    with pytest.raises(UndefinedInverseError):
        AbetaD(Q(1, 2), Q(1, 3), 1, 0, Q(1, 2))


@settings(max_examples=100, deadline=None)
@given(nonint, rationals, rationals, rationals)
def test_commutation_identities_window(alpha, beta, r, rp):
    # all identities exactly, on t in [-6, 6]
    w = DegreeWindow(-6, 6, 1, 0)
    results = check_commutation(w, alpha, beta, r, rp, 0, 0, n=1)
    assert len(results) >= 8
    assert all(ok for _name, ok in results)


def test_commutation_identity_names_cover_displayed_relations():
    names = [name for name, _l, _r in commutation_identities(Q(1, 2), Q(1, 3), 1, 2, 0, 0)]
    for expected in (
        "ArS.phi = Dtr",
        "phi.ArS = Dtr+1",
        "t.phi = phi-1.t",
        "Dtr.phi = phi-1.Dtr",
        "Dtr.Dtr commute",
        "phi.phi shift",
        "ArS.ArS shift",
        "ArS.t = t.ArS+1",
    ):
        assert expected in names


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["dtr", "phi", "ars", "abetad"]),
    rationals,
    rationals,
    rationals,
    st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
)
def test_invertibility_matches_closed_form(kind, a, r, s, beta):
    if kind == "dtr":
        op, expect = Dtr(r), not is_integer(r)
    elif kind == "phi":
        op, expect = PhiC(r), not is_integer(r)
    elif kind == "ars":
        if is_integer(a + s):
            return
        op, expect = ArS(a, r, s), not is_integer(a + r + s)
    else:
        if is_integer(a + s):
            return
        op = AbetaD(a, beta, 1, r, s)
        expect = all(
            not is_integer(beta * (u + r) + a + s) for u in range(beta.denominator)
        )
    v = invertible_on(op, 1)
    assert v.invertible == expect
    if not v.invertible:
        # the witness monomial really is killed (or maps with zero eigenvalue)
        m = v.witness
        e = RingElement.monomial(1, m)
        assert apply(op, e).is_zero()


def test_abetad_variable_index():
    with pytest.raises(OperatorError):
        AbetaD(Q(1, 2), Q(1, 3), 0, 0, 0)
    op = AbetaD(Q(1, 2), Q(1, 2), 3, 0, 0)
    with pytest.raises(OperatorError):
        invertible_on(op, 1)  # x_3 is not a variable of k((t))[x_1]
    v = invertible_on(op, 3)
    assert v.witness == Monomial(-2, (0, 0, 1), 0)
    assert apply(op, RingElement.monomial(3, v.witness)).is_zero()


def test_parse_operator():
    op = parse_operator("compose(Dtr(1/2), t)")
    assert apply(op, tk(2)) == tk(3).scale(Q(7, 2))
    op = parse_operator("sum(dt, scale(-1/2, tinv))")
    assert apply(op, tk(1)) == tk(0).scale(Q(1, 2))
    op = parse_operator("ArS(1/3, 2/3, 0)")
    assert apply(op, tk(0)) == tk(1).scale(Q(3, 2))
    op = parse_operator("dx1")
    assert apply(op, parse_poly("x1^2", 1)) == parse_poly("2*x1", 1)
    with pytest.raises(ValueError):
        parse_operator("bogus(1)")
    # each leaf takes its own number of arguments, and AbetaD an integer index
    for bad in ("Dtr(1,2)", "Phi(1,2)", "ArS(1/3,0)", "AbetaD(1/2,1/3,1,0)",
                "AbetaD(1/2,1/3,3/2,0,0)"):
        with pytest.raises(ValueError):
            parse_operator(bad)
    assert parse_operator("AbetaD(1/2,1/3,2,0,0)").i == 2


def test_parse_operator_shares_the_polynomial_tokens():
    # whitespace is free between tokens, inside rationals too
    assert parse_operator(" compose( Dtr( - 1 / 2 ) , t ) ") == parse_operator("compose(Dtr(-1/2),t)")
    # a syntax error's position is its offset in the text
    for src, position in [("sum(dt, foo)", 8), ("Dtr(1 /x1)", 7), ("scale(1/2 t)", 10),
                          ("compose(id, t) tinv", 15)]:
        with pytest.raises(ParseError) as exc:
            parse_operator(src)
        assert exc.value.position == position, src
