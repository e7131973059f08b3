import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from gmexp import upoly
from gmexp.engine import ResourceLimitError, Verdict, exponent_test
from gmexp.parser import ParseError, parse_poly
from gmexp.rational import Q, class_rep
from gmexp.reduction import (
    MAX_A0_SIZE,
    FamilySpec,
    UnivariateOperator,
    reduce_family,
    scale_exponents,
    univariate_regular_exponents,
)
from gmexp.ring import RingElement, serialize


def test_reduce_family_trivial():
    p = parse_poly("x1", 1)
    one = RingElement.one(1)
    inst, scale = reduce_family(FamilySpec(p, one, one, 1))
    assert serialize(inst.f) == "x1" and inst.g.is_one() and scale == 1


def test_reduce_family_monomial_quotient():
    p = parse_poly("x1^2", 2)
    q = parse_poly("x2", 2)
    one = RingElement.one(2)
    inst, scale = reduce_family(FamilySpec(p, q, one, 3))
    assert serialize(inst.f) == "x1^2*ginv^1"
    assert serialize(inst.g) == "x2"
    assert scale == 3


def test_reduce_family_clears_r_denominators():
    r = parse_poly("x1", 1)
    p = parse_poly("x1*ginv", 1, allow_ginv=True)  # x1 / r
    q = parse_poly("ginv", 1, allow_ginv=True)  # 1 / r
    inst, scale = reduce_family(FamilySpec(p, q, r, 1))
    assert serialize(inst.f) == "x1" and serialize(inst.g) == "x1"


def test_family_spec_validation():
    one = RingElement.one(1)
    with pytest.raises(ValueError):
        FamilySpec(one, RingElement.zero(1), one, 1)
    with pytest.raises(ValueError):
        FamilySpec(one, one, one, 0)
    with pytest.raises(ValueError):
        FamilySpec(one, one, RingElement.zero(1), 2)


def test_scale_exponents_examples():
    assert scale_exponents([Q(1, 2)], 2) == [Q(1)]
    assert scale_exponents([Q(1, 3), Q(2, 3)], 1) == [Q(1, 3), Q(2, 3)]
    assert scale_exponents([Q(1, 4)], 2) == [Q(1, 2)]


@given(
    st.lists(st.builds(Q, st.integers(-10, 10), st.integers(1, 8)), max_size=6),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_scale_exponents_composition(exps, a, b):
    assert scale_exponents(exps, 1) == sorted(class_rep(x) for x in exps)
    assert scale_exponents(scale_exponents(exps, a), b) == scale_exponents(exps, a * b)


def test_reduced_family_consistent_with_direct_query():
    # d = 1, r = 1, q = 1: family and direct instance coincide
    p = parse_poly("x1^2*(1-x1)", 1)
    one = RingElement.one(1)
    inst, scale = reduce_family(FamilySpec(p, one, one, 1))
    for alpha, verdict in [("1/2", Verdict.EXPONENT), ("1/3", Verdict.NOT_EXPONENT)]:
        via_family = exponent_test(type(inst)(n=1, f=inst.f, g=inst.g, alpha=alpha))
        direct = exponent_test(type(inst)(n=1, f=p, g=one, alpha=alpha))
        assert via_family.verdict is direct.verdict is verdict
        assert scale_exponents([alpha], scale) == scale_exponents([alpha], 1)


def test_univariate_parse_and_query():
    op = UnivariateOperator.parse("A0=(D-1/2)*(D-1/3); A1=D^5")
    rank, roots, residual = univariate_regular_exponents(op)
    assert rank == 2
    assert roots == [(Q(1, 3), 1), (Q(1, 2), 1)]
    assert residual == (Q(1),)


def test_univariate_kummer():
    op = UnivariateOperator.parse("A0=D-2/5")
    rank, roots, _ = univariate_regular_exponents(op)
    assert rank == 1 and roots == [(Q(2, 5), 1)]


def test_univariate_repeated_and_irrational():
    op = UnivariateOperator.parse("A0=(D-1/2)^2")
    rank, roots, residual = univariate_regular_exponents(op)
    assert rank == 2 and roots == [(Q(1, 2), 2)] and residual == (Q(1),)

    op = UnivariateOperator.parse("A0=(D^2-2)*(D-1)")
    rank, roots, residual = univariate_regular_exponents(op)
    assert rank == 3 and roots == [(Q(1), 1)]
    assert residual == (Q(-2), Q(0), Q(1))  # D^2 - 2 left unfactored


def test_univariate_a0_required():
    op = UnivariateOperator.parse("A1=D^5")
    with pytest.raises(ValueError):
        univariate_regular_exponents(op)
    with pytest.raises(ValueError):
        UnivariateOperator.parse("B0=D")


def test_univariate_root_search_is_bounded():
    # roots near 10^6 are found
    op = UnivariateOperator.parse("A0=(D-999983)*(D-1000003)")
    assert univariate_regular_exponents(op)[1] == [(Q(999983), 1), (Q(1000003), 1)]
    # large end coefficients bound no divisor search: each is answered at once
    for src, roots in (("A0=(D-1/7)^15", [(Q(1, 7), 15)]), ("A0=D-10^30", [(Q(10**30), 1)]),
                       ("A0=10^13*D-1", [(Q(1, 10**13), 1)]),
                       ("A0=D-1/10^13", [(Q(1, 10**13), 1)])):
        started = time.perf_counter()
        assert univariate_regular_exponents(UnivariateOperator.parse(src))[1] == roots, src
        assert time.perf_counter() - started < 1, src


def test_univariate_a0_past_the_size_cap_is_refused():
    # deg^2 * (coefficient bits + degree bits) decides, before any gcd: degree
    # 163 with coefficients in [-99, 99] is the largest dense A0 accepted
    assert 163**2 * (7 + 8) <= MAX_A0_SIZE < 164**2 * (7 + 8)
    for src in ("A0=D^2000+1", "A0=99*D^164+98", "A0=(D-2^300)*(D-3^200)*D^38"):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            univariate_regular_exponents(UnivariateOperator.parse(src))
        assert time.perf_counter() - started < 1, src
    assert univariate_regular_exponents(UnivariateOperator.parse("A0=99*D^163+98"))[0] == 163


def test_root_search_is_bounded_when_no_small_prime_separates_the_roots():
    # the roots 0 and P of D^2 - P*D meet modulo every prime dividing P, and
    # the scan for a prime that keeps them apart is bounded by MAX_ROOT_SCAN
    def odd_primorial(bound):
        return math.prod(q for q in range(3, bound) if all(q % d for d in range(2, math.isqrt(q) + 1)))

    small = odd_primorial(2000)
    assert univariate_regular_exponents(UnivariateOperator.from_polys({0: [0, -small, 1]}))[1] == \
        [(Q(0), 1), (Q(small), 1)]
    big = odd_primorial(8000)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        univariate_regular_exponents(UnivariateOperator.from_polys({0: [0, -big, 1]}))
    assert time.perf_counter() - started < 3


def rational_roots_by_sorting(coefs):
    """Every +-p/q with p | a_0 and q | a_d (a_0 the lowest nonzero
    coefficient), evaluated over Q, and 0 when it is a root, sorted: the
    divisor search that upoly.rational_roots replaced, kept as its oracle."""
    zero = [Q(0)] if coefs[0] == 0 else []
    while coefs[0] == 0:
        coefs = coefs[1:]
    den = 1
    for c in coefs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    a0, an = abs(int(coefs[0] * den)), abs(int(coefs[-1] * den))
    divisors = lambda m: [d for d in range(1, m + 1) if m % d == 0]
    candidates = sorted({Q(s * p, q) for p in divisors(a0) for q in divisors(an) for s in (1, -1)})
    return sorted(zero + [r for r in candidates if sum(c * r**i for i, c in enumerate(coefs)) == 0])


def test_rational_root_search_keeps_the_smallest_root():
    # the polynomials the univariate tests solve, and others whose ends share factors
    for src in ("(D-1/2)*(D-1/3)", "D-2/5", "(D-1/2)^2", "(D^2-2)*(D-1)", "D",
                "(2*D-1)*(3*D+2)*(D+2/3)", "6*D^2-6", "4*D^2+4*D+1", "D^2+1", "12*D^3-12*D"):
        coefs = UnivariateOperator.parse(f"A0={src}").a0()
        assert upoly.rational_roots(coefs) == rational_roots_by_sorting(coefs), src


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=2, max_size=4).filter(lambda c: c[-1] != 0))
def test_rational_root_search_matches_sorting(ints):
    coefs = [Q(c) for c in ints]
    assert upoly.rational_roots(coefs) == rational_roots_by_sorting(coefs)


def test_rational_root_search_divides_out_the_content():
    # 400 * (157625987 D - 34918884): the content is divided out and the one
    # root read back from its lift
    started = time.perf_counter()
    op = UnivariateOperator.parse("A0=63050394800*D-13967553600")
    assert univariate_regular_exponents(op)[1] == [(Q(34918884, 157625987), 1)]
    assert time.perf_counter() - started < 2


def test_rational_root_search_sieves_divisor_pairs():
    # both ends with 6720 divisors (about 45 million coprime pairs, which a
    # divisor search would have to sieve), and no divisor is enumerated
    started = time.perf_counter()
    op = UnivariateOperator.parse("A0=963761198400*D^2+D+963761198400")
    assert univariate_regular_exponents(op)[1] == []
    op = UnivariateOperator.parse("A0=(720720*D-1)*(D+720720)")
    assert univariate_regular_exponents(op)[1] == [(Q(-720720), 1), (Q(1, 720720), 1)]
    assert time.perf_counter() - started < 2


def test_univariate_parse_reads_the_polynomial_tokens():
    # empty equations and whitespace anywhere between tokens are allowed
    assert UnivariateOperator.parse(" ; A0 = D - 1 / 2 ;; A1=D ; ") == \
        UnivariateOperator.parse("A0=D-1/2;A1=D")
    assert UnivariateOperator.parse("") == UnivariateOperator.from_polys({})
    # positions are offsets into the whole text
    for src, position in [("A0=D A1=D", 5), ("A0=D; B0=D", 6), ("A0=D; A1 D", 9)]:
        with pytest.raises(ParseError) as exc:
            UnivariateOperator.parse(src)
        assert exc.value.position == position, src


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(Q, st.integers(-6, 6), st.integers(1, 4)), min_size=1, max_size=4))
def test_univariate_rank_and_roots_depend_only_on_a0(roots_in):
    # build A0 = prod (D - root) plus arbitrary higher coefficients
    parts = [f"(D-{r.numerator}/{r.denominator})" for r in roots_in]
    src = "A0=" + "*".join(parts) + "; A2=D^3+1"
    rank, roots, residual = univariate_regular_exponents(UnivariateOperator.parse(src))
    assert rank == len(roots_in)
    assert residual == (Q(1),)
    got = sorted([r for r, m in roots for _ in range(m)])
    assert got == sorted(roots_in)
