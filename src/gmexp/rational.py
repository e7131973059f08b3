"""Exact rational scalars.

Everything in this library is computed over Q.  We use gmpy2.mpq when
available (much faster for the elimination-heavy workloads) and fall back
to fractions.Fraction, which has the same canonical-form semantics
(reduced, positive denominator).  ResourceLimitError is here because every
module that raises it reads this one.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q

    HAVE_GMPY2 = True
except ImportError:  # gmpy2 is optional (the "fast" extra)
    Q = Fraction
    HAVE_GMPY2 = False

QZERO = Q(0)


class ResourceLimitError(RuntimeError):
    """Work past a cap (exit 4): a polynomial product, an engine window or a
    univariate A0."""


def is_integer(q) -> bool:
    return q.denominator == 1


def qfloor(q) -> int:
    return q.numerator // q.denominator


def class_rep(q):
    """Canonical representative in (0, 1] of the class of q modulo Z."""
    r = q - qfloor(q)
    return Q(1) if r == 0 else r
