"""Polynomials over Q as coefficient lists, lowest degree first, with no zero
leading coefficient ([] is 0).  Gcds run on integer pseudo-remainders, not
Euclid over Q, and rational roots are Hensel lifts, with no divisor search."""

from __future__ import annotations

import math

from .rational import Q, ResourceLimitError

# Horner steps rational_roots may spend scanning residues for a prime at
# which no root is multiple (about 1 s); only roots built to collide modulo
# every small prime need more
MAX_ROOT_SCAN = 4 * 10**6


def trim(p):
    """p without zero leading coefficients (in place)."""
    while p and not p[-1]:
        p.pop()
    return p


def mul(p, q):
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def at(p, x, mod=0):
    """p(x) by Horner's rule; with mod, reduced modulo mod at each step."""
    acc = 0 if mod else Q(0)
    for c in reversed(p):
        acc = (acc * x + c) % mod if mod else acc * x + c
    return acc


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def primitive(p):
    """The coprime integer multiple of p with a positive leading coefficient."""
    den = math.lcm(*(int(c.denominator) for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g if ints[-1] > 0 else -c // g for c in ints]


def divide(p, q):
    """(quotient, remainder) of p by q != 0 over Q."""
    rem, d, lead = list(p), len(q) - 1, Q(q[-1])
    quo = [Q(0)] * max(len(p) - d, 0)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + d] / lead
        for i, b in enumerate(q):
            rem[k + i] -= c * b
    return quo, trim(rem[:d])


def gcd(p, q):
    """The gcd as a primitive integer polynomial, by primitive pseudo-remainders."""
    a, b = primitive(p), primitive(q)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r.pop(), len(r) + 1 - len(b)
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b[:-1]):
                r[shift + i] -= c * y
        a, b = b, primitive(trim(r))
    return a


def rational_roots(p):
    """The sorted distinct rational roots of p != 0: the simple roots of its
    square-free part a mod a prime l are lifted, and those found divided
    out, at the next prime until a mod l has no multiple root."""
    a, roots, ell, work = primitive(divide(p, gcd(p, derivative(p)))[0]), [], len(p), 0
    while work < MAX_ROOT_SCAN:
        ell += 1
        if a[-1] % ell == 0 or any(ell % d == 0 for d in range(2, math.isqrt(ell) + 1)):
            continue
        work += ell * len(a)
        da, reduced = derivative(a), [c % ell for c in a]
        zeros = [x for x in range(ell) if not at(reduced, x, ell)]
        simple = [x for x in zeros if at(da, x, ell)]
        found = [r for r in (_lift(a, da, x, ell) for x in simple) if not at(a, r)]
        for r in found:
            a = primitive(divide(a, [-r, 1])[0])
        roots += found
        if len(simple) == len(zeros):
            return sorted(roots)
    raise ResourceLimitError("no prime keeps the roots apart within MAX_ROOT_SCAN")


def _lift(a, da, x, ell):
    """The rational r, if any, that reduces to x, a simple root of a mod ell:
    lead(a)*r is an integer of size at most lead(a) + max|a_i| (Cauchy), so
    Newton's step lifts x past twice that and lead(a)*x is read symmetrically."""
    lead, mod, bound = a[-1], ell, 2 * (a[-1] + max(map(abs, a[:-1])))
    while mod <= bound:
        mod *= mod
        x = (x - at(a, x, mod) * pow(at(da, x, mod), -1, mod)) % mod
    s = lead * x % mod
    return Q(s - mod if 2 * s > mod else s, lead)
