import itertools

import pytest

from gmexp.arrangements import (
    Arrangement,
    alternating_sum,
    candidate_exponents,
    convolution_candidate_set,
    determinant_d,
    determinant_polynomial,
    gcd_criterion,
    lambda_poly,
    oracle_suite,
    per_degree_exponent_test,
    recognize_arrangement,
)
from gmexp.engine import ProblemInstance, Verdict, exponent_test
from gmexp.parser import parse_poly
from gmexp.rational import Q
from gmexp.ring import RingElement


def test_lambda_poly_examples():
    assert lambda_poly(Arrangement((1, 1))) == parse_poly("x1 - x1^2", 1)
    assert lambda_poly(Arrangement((1, 2))) == parse_poly("x1^2*(1-x1)", 1)
    assert lambda_poly(Arrangement((1, 1, 1))) == parse_poly("x1*x2*(1-x1-x2)", 2)
    with pytest.raises(ValueError):
        lambda_poly(Arrangement((1, 0, 1)))


def test_candidate_exponents_examples():
    assert candidate_exponents(Arrangement((1, 2))) == {Q(1), Q(1, 2)}
    assert candidate_exponents(Arrangement((1, 1, 1))) == {Q(1)}
    assert candidate_exponents(Arrangement((2, 1, 3))) == {
        Q(1, 2), Q(1), Q(1, 3), Q(2, 3),
    }


def test_convolution_candidate_set_examples():
    assert convolution_candidate_set((0, 0, 2, 4), 1) == {Q(1, 2), Q(1)}
    w = 5
    assert convolution_candidate_set((0, w), 0) == {Q(j, w) for j in range(1, w + 1)}
    assert convolution_candidate_set((0, 2, 3), 0) == {Q(1)}


def test_gcd_criterion_examples():
    assert not gcd_criterion((2, 4))
    assert gcd_criterion((2, 3))
    assert gcd_criterion((6, 10, 15))
    assert convolution_candidate_set((0, 6, 10, 15), 0) == {Q(1)}


def test_gcd_criterion_matches_convolution_exhaustive():
    # all tuples with entries <= 12, length <= 4
    for length in (2, 3, 4):
        for ws in itertools.combinations_with_replacement(range(1, 13), length):
            collapsed = convolution_candidate_set((0,) + ws, 0) == {Q(1)}
            assert gcd_criterion(ws) == collapsed, ws


def test_determinant_w0_2_linear_form():
    # polynomial part is 2(alpha + l) + 1 regardless of (d, m, n)
    for w in ((2, 1), (2, 3), (2, 1, 1)):
        a = Arrangement(w)
        for l in (-2, 0, 3):
            for m in (0, 1, 4):
                poly = determinant_polynomial(a, l, m)
                assert poly == [Q(2 * l + 1), Q(2)]


def test_determinant_root_multiset():
    for w0 in range(2, 9):
        a = Arrangement((w0, 1, 1))
        for l in range(-5, 6):
            for m in (0, 2):
                roots = {-l - Q(aa, w0) for aa in range(1, w0)}
                for alpha in roots:
                    assert determinant_d(a, alpha, l, m) == 0
                # degree w0-1: no room for any other root
                poly = determinant_polynomial(a, l, m)
                assert len(poly) == w0 and poly[-1] != 0


def test_determinant_nonvanishing_when_no_weight_resonance():
    a = Arrangement((3, 1, 2))
    alpha = Q(1, 5)  # w_i * alpha never an integer
    for l in range(-4, 5):
        for m in range(0, 5):
            assert determinant_d(a, alpha, l, m) != 0


def test_determinant_preconditions():
    a = Arrangement((1, 1))
    with pytest.raises(ValueError):
        determinant_d(a, Q(1, 2), 0, 0)
    a2 = Arrangement((2, 1))
    with pytest.raises(ValueError):
        determinant_d(a2, Q(-2), 2, 0)


def test_alternating_sum():
    assert alternating_sum(3, 1) == 0
    assert alternating_sum(4, 2) == 0
    assert alternating_sum(3, 2) == 2
    for n in range(2, 13):
        for m in range(0, n - 1):
            assert alternating_sum(n, m) == 0, (n, m)


def test_recognize_arrangement():
    for w in ((1, 2), (2, 1, 3), (3, 1, 1)):
        a = Arrangement(w)
        f = lambda_poly(a)
        got = recognize_arrangement(f, a.n)
        assert got is not None and got.weights == w
    assert recognize_arrangement(parse_poly("x1 + x1^3", 1), 1) is None
    assert recognize_arrangement(parse_poly("x1^2", 1), 1) is None  # w0 = 0


def test_per_degree_applies_and_agrees():
    f = lambda_poly(Arrangement((1, 2)))
    one = RingElement.one(1)
    for alpha in ("1/3", "1/5", "2/5"):
        p = ProblemInstance(n=1, f=f, g=one, alpha=alpha)
        fast = per_degree_exponent_test(p)
        assert fast is not None and fast.method == "per-degree"
        slow = exponent_test(p)
        assert fast.verdict is slow.verdict is Verdict.NOT_EXPONENT
        assert fast.cokernel_dim == slow.cokernel_dim == 0


def test_per_degree_falls_back_on_resonance():
    f = lambda_poly(Arrangement((1, 2)))
    one = RingElement.one(1)
    p = ProblemInstance(n=1, f=f, g=one, alpha="1/2")  # w1*alpha integer
    assert per_degree_exponent_test(p) is None
    rep = exponent_test(p, method="per-degree")  # silently takes the generic path
    assert rep.method == "generic" and rep.verdict is Verdict.EXPONENT


def test_oracle_suite_small_weights():
    rows = oracle_suite(Arrangement((1, 2)), extra_alphas=[Q(1, 3)])
    by_alpha = {r["alpha"]: r for r in rows}
    assert by_alpha["1/2"]["verdict"] == "exponent" and by_alpha["1/2"]["agree"]
    assert by_alpha["1/3"]["verdict"] == "not-exponent" and by_alpha["1/3"]["agree"]
    assert by_alpha["1"]["verdict"] == "exponent" and by_alpha["1"]["agree"]
    assert all(r["agree"] is not None for r in rows)
