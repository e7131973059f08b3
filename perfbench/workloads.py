"""Workloads of the gmexp benchmark and their closed-form oracles.

A workload is a fixed list of shapes.  A shape is one polynomial f (a
template over X1..Xn), one g, and the classes alpha asked of it.  One
cycle asks every (shape, alpha) slot once, so every cycle does the same
work.  What changes from cycle to cycle is the concrete polynomial:

* shapes with fixed classes take a fresh variant of (f, g) each cycle:
  f -> -f, x_i -> -x_i and g -> -g first, then x_i -> c*x_i for c = 2, 3, ...
  The sign variants are substitutions t -> -t, x_i -> -x_i (and a change of
  the unit in g), so the assembled matrices differ from the original only by
  +-1 row and column scalings: elimination takes the same pivots and does the
  same amount of arithmetic.  Scaled variants (only reached once every sign
  variant is used) have slightly larger coefficients.
* per-degree shapes keep f (the per-degree route only recognises the
  arrangement polynomial itself) and take a fresh non-resonant class each
  cycle.

Either way no (f, g, alpha) query repeats within a run, so memoising
verdicts cannot fake a gain, and the seed only chooses variants, classes
and order, never how much work a cycle holds.

The oracles below are closed forms written here; they do not call
gmexp.arrangements, because engine-against-engine agreement is no check.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Largest denominator of the per-degree class pool.  Each per-degree shape
# has about 250 non-resonant classes up to it, one per cycle.
PER_DEGREE_MAX_DEN = 30


@dataclass(frozen=True)
class Expect:
    """What the oracle says about one query.

    For verdict queries: whether alpha is an exponent, and the cokernel
    dimension when the closed form gives it (0 whenever alpha is not an
    exponent).  For Koszul queries: every cohomology dimension is 0.
    """

    exponent: bool
    cokernel: int | None


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    template: str  # f over X1..Xn
    g: str  # "1" or a template over X1..Xn
    alphas: tuple[Fraction, ...] | None  # None: fresh per-degree class each cycle
    oracle: object  # alpha -> Expect
    weights: tuple[int, ...] = ()  # arrangement weights (w0, w1, ..., wn)

    def render(self, variant: tuple[int, tuple[int, ...], int, int]) -> tuple[str, str]:
        """(f, g) source strings for variant (f sign, x signs, scale, g sign)."""
        fsign, xsigns, scale, gsign = variant

        def subst(template: str) -> str:
            out = template
            for i, s in enumerate(xsigns, start=1):
                coef = s * scale
                out = out.replace(f"X{i}", f"x{i}" if coef == 1 else f"({coef}*x{i})")
            return out

        f = subst(self.template)
        if fsign < 0:
            f = f"-({f})"
        g = "1" if self.g == "1" else subst(self.g)
        if self.g != "1" and gsign < 0:
            g = f"-({g})"
        return f, g


@dataclass(frozen=True)
class Workload:
    name: str
    query: str  # "generic", "per-degree" or "koszul"
    shapes: tuple[Shape, ...]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _is_int(q: Fraction) -> bool:
    return q.denominator == 1


def _frac_class(q: Fraction) -> Fraction:
    """Representative in (0, 1] of q mod Z."""
    r = q - math.floor(q)
    return Fraction(1) if r == 0 else r


def arrangement_oracle(weights: tuple[int, ...]):
    """The exponents of x^w (1 - sum x)^w0 are the classes j/w_i."""

    def expect(alpha: Fraction) -> Expect:
        exponent = any(_is_int(w * alpha) for w in weights)
        return Expect(exponent, None if exponent else 0)

    return expect


def brieskorn_pham_oracle(a: int, b: int):
    """Cokernel of x1^a + x2^b at alpha: #{(i, j): 0<i<a, 0<j<b, i/a + j/b = alpha mod Z}."""

    def expect(alpha: Fraction) -> Expect:
        k = _frac_class(alpha)
        count = sum(
            1
            for i in range(1, a)
            for j in range(1, b)
            if _frac_class(Fraction(i, a) + Fraction(j, b)) == k
        )
        return Expect(count > 0, count)

    return expect


def monomial_localized_oracle(w: int):
    """f = x^w over k[x, 1/x]: the exponents are the classes j/w."""

    def expect(alpha: Fraction) -> Expect:
        exponent = _is_int(w * alpha)
        return Expect(exponent, None if exponent else 0)

    return expect


def koszul_oracle(_alpha: Fraction) -> Expect:
    """Non-exponent classes: every interior Koszul cohomology dimension is 0."""
    return Expect(False, 0)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def _alphas(spec: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in spec.split())


def arrangement_template(weights: tuple[int, ...]) -> str:
    w0, ws = weights[0], weights[1:]
    factors = [f"X{i}" + (f"^{w}" if w > 1 else "") for i, w in enumerate(ws, start=1)]
    linear = "(1-" + "-".join(f"X{i}" for i in range(1, len(ws) + 1)) + ")"
    factors.append(linear + (f"^{w0}" if w0 > 1 else ""))
    return "*".join(factors)


def arrangement(weights, alphas, oracle=None) -> Shape:
    weights = tuple(weights)
    return Shape(
        name="arr" + ",".join(map(str, weights)),
        n=len(weights) - 1,
        template=arrangement_template(weights),
        g="1",
        alphas=_alphas(alphas) if alphas else None,
        oracle=oracle or arrangement_oracle(weights),
        weights=weights,
    )


def brieskorn_pham(a: int, b: int, alphas: str) -> Shape:
    return Shape(
        name=f"bp{a},{b}",
        n=2,
        template=f"X1^{a}+X2^{b}",
        g="1",
        alphas=_alphas(alphas),
        oracle=brieskorn_pham_oracle(a, b),
    )


def monomial_localized(w: int, alphas: str, oracle=None) -> Shape:
    return Shape(
        name=f"x^{w}/x",
        n=1,
        template=f"X1^{w}",
        g="X1",
        alphas=_alphas(alphas),
        oracle=oracle or monomial_localized_oracle(w),
    )


def _per_degree_shapes() -> tuple[Shape, ...]:
    """Every arrangement with n <= 3 and weight sum <= 7 (91 shapes)."""
    out = []
    for n in (1, 2, 3):
        for ws in itertools.product(range(1, 8), repeat=n + 1):
            if sum(ws) <= 7:
                out.append(arrangement(ws, None))
    return tuple(out)


def per_degree_classes(weights: tuple[int, ...]) -> list[Fraction]:
    """Classes j/q (q <= PER_DEGREE_MAX_DEN) with no w*alpha integral."""
    return [
        Fraction(j, q)
        for q in range(2, PER_DEGREE_MAX_DEN + 1)
        for j in range(1, q)
        if math.gcd(j, q) == 1 and not any(_is_int(w * Fraction(j, q)) for w in weights)
    ]


# One cycle takes about 10 s (sweep), 18 s (localized), 1.6 s (per-degree)
# and 8 s (koszul) of wall time on a 2-vCPU VM with CPython 3.11 and the
# Fraction backend.  The cycles are kept this short so that a run of every
# workload fits the benchmark's time budget.
WORKLOADS = {
    w.name: w
    for w in (
        # g = 1, generic path, many small queries grouped by f: arrangement and
        # Brieskorn-Pham polynomials with exponent and non-exponent classes,
        # two windows mostly and three for the late-surfacing classes.
        Workload(
            "sweep",
            "generic",
            (
                arrangement((2, 3), "1/5 1/2 1"),
                arrangement((4, 1), "1/4 2/5"),
                arrangement((1, 1, 1), "1/4 1"),
                arrangement((1, 2, 2), "1/3 1/2"),
                arrangement((2, 1, 1), "1/3"),
                brieskorn_pham(2, 3, "5/6 1/2 1/6"),
                brieskorn_pham(3, 3, "1 1/3"),
                brieskorn_pham(2, 5, "3/10 1/5"),
                brieskorn_pham(3, 4, "5/12"),
            ),
        ),
        # g = x1: relation columns, elimination-bound, and x^2/x at class 1
        # surfaces late (estimates 0, 0, 1, 1), so its fourth window dominates.
        Workload(
            "localized",
            "generic",
            (
                monomial_localized(2, "1"),
                monomial_localized(3, "1/3 2/3"),
                monomial_localized(4, "1/4 1"),
            ),
        ),
        # The per-degree route: no elimination and no assembly, the bypass
        # workload for every linalg or operators change.
        Workload("per-degree", "per-degree", _per_degree_shapes()),
        # Koszul cohomology on the first default window of non-exponent
        # instances: Gauss-Jordan nullspace and multi-component assembly.
        Workload(
            "koszul",
            "koszul",
            tuple(
                [
                    arrangement(ws, a, koszul_oracle)
                    for ws, a in (
                        ((2, 3), "1/5"),
                        ((1, 3), "1/4"),
                        ((4, 1), "1/3"),
                        ((3, 2), "1/4"),
                        ((1, 1, 1), "1/4"),
                        ((1, 2, 2), "1/3"),
                        ((2, 1, 2), "1/5"),
                        ((3, 1, 1), "1/4"),
                    )
                ]
                + [
                    monomial_localized(w, a, koszul_oracle)
                    for w, a in ((2, "1/3"), (3, "1/4"), (4, "1/5"))
                ]
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Seeded cycle plans
# ---------------------------------------------------------------------------


def variants(shape: Shape, rng: random.Random):
    """Endless (f sign, x signs, scale, g sign) variants: every sign pattern
    at scale 1 in seeded order, then scale 2, and so on."""
    gsigns = (1,) if shape.g == "1" else (1, -1)
    patterns = [
        (fs, xs, gs)
        for fs in (1, -1)
        for xs in itertools.product((1, -1), repeat=shape.n)
        for gs in gsigns
    ]
    for scale in itertools.count(1):
        order = patterns[:]
        rng.shuffle(order)
        for fs, xs, gs in order:
            yield fs, xs, scale, gs


class Plan:
    """Seeded source of cycles for one workload.

    cycle() returns [(shape, alphas), ...] with shapes in a seeded order and
    the classes of a shape next to each other, so queries sharing an f
    arrive together.  A shape with fixed classes takes its (f, g) from
    next_variant(); variants may render to the same polynomial (x1 -> -x1
    in x1^2), so the caller parses them and skips repeats.  A per-degree
    shape keeps its f and gets one fresh class per cycle.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"gmexp-bench:{workload.name}:{seed}")
        self._variants = {}
        self._classes = {}
        for s in workload.shapes:
            if s.alphas is None:
                pool = per_degree_classes(s.weights)
                self.rng.shuffle(pool)
                self._classes[s.name] = iter(pool)
            else:
                self._variants[s.name] = variants(s, self.rng)

    def next_variant(self, shape: Shape) -> tuple[str, str]:
        if shape.alphas is None:
            return shape.render((1, (1,) * shape.n, 1, 1))
        return shape.render(next(self._variants[shape.name]))

    def cycle(self) -> list[tuple[Shape, list[Fraction]]]:
        shapes = list(self.workload.shapes)
        self.rng.shuffle(shapes)
        out = []
        for s in shapes:
            if s.alphas is None:
                alpha = next(self._classes[s.name], None)
                if alpha is None:
                    raise RuntimeError(f"class pool of {s.name} exhausted")
                out.append((s, [alpha]))
            else:
                alphas = list(s.alphas)
                self.rng.shuffle(alphas)
                out.append((s, alphas))
        return out
