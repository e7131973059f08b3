"""Exact-arithmetic exponent computations for one-dimensional direct
images: surjectivity/cokernel verdicts for residue classes, the scaling-
operator calculus, and weighted-arrangement closed forms."""

__version__ = "0.1.0"

from .arrangements import (
    Arrangement,
    alternating_sum,
    candidate_exponents,
    convolution_candidate_set,
    determinant_d,
    gcd_criterion,
    lambda_poly,
    oracle_suite,
    per_degree_exponent_test,
)
from .engine import (
    DegreeWindow,
    ExponentReport,
    ProblemInstance,
    ResourceLimitError,
    Verdict,
    WindowError,
    default_schedule,
    exponent_test,
    koszul_cohomology,
)
from .parser import ParseError, parse_poly
from .rational import Q, class_rep
from .reduction import (
    FamilySpec,
    UnivariateOperator,
    reduce_family,
    scale_exponents,
    univariate_regular_exponents,
)
from .ring import Monomial, RingElement, serialize

__all__ = [
    "Arrangement",
    "DegreeWindow",
    "ExponentReport",
    "FamilySpec",
    "Monomial",
    "ParseError",
    "ProblemInstance",
    "Q",
    "ResourceLimitError",
    "RingElement",
    "UnivariateOperator",
    "Verdict",
    "WindowError",
    "alternating_sum",
    "candidate_exponents",
    "class_rep",
    "convolution_candidate_set",
    "default_schedule",
    "determinant_d",
    "exponent_test",
    "gcd_criterion",
    "koszul_cohomology",
    "lambda_poly",
    "oracle_suite",
    "parse_poly",
    "per_degree_exponent_test",
    "reduce_family",
    "scale_exponents",
    "serialize",
    "univariate_regular_exponents",
]
