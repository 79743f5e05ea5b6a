"""The root certificate in plain Fraction arithmetic, as a test oracle.

``ratpoly`` runs the certificate's sign work on integers: numerators over
one positive denominator, a Sturm chain of primitive pseudo-remainders and
a bisection on dyadic numerators.  This module keeps the same algorithm on
Fractions only: Horner evaluation, a Sturm chain f, f', -rem(f, f'), ...
built by exact division with remainder, and bisection on Fraction
midpoints.  The tests check that both give the same certificate, line for
line.

The polynomial arithmetic (exact division with remainder and the
derivative) comes from the tests' schoolbook module, ``polyarith``;
evaluation, the chain, the square-free part and the bisection are this
module's own.
"""

from __future__ import annotations

from fractions import Fraction

from hcmu_lab.algebra import Certificate
from hcmu_lab.ratpoly import ISOLATION_WIDTH, RationalPoly, as_fraction
from polyarith import derivative, divide, from_roots, mul


def horner(p: RationalPoly, x) -> Fraction:
    """p(x) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sturm_chain(f: RationalPoly) -> list[RationalPoly]:
    """The canonical chain f, f', -rem(f, f'), ..., ending before zero."""
    chain = [f, derivative(f)]
    while chain[-1] and chain[-1].degree > 0:
        chain.append(mul(-1, divide(chain[-2], chain[-1])[1]))
    if not chain[-1]:
        chain.pop()
    return chain


def is_positive_multiple(A, p: RationalPoly) -> bool:
    """Whether the integers A, leading first, are c p for some c > 0."""
    cs = p.coeffs[::-1]
    if len(A) != len(cs):
        return False
    scale = A[0] / cs[0]
    return scale > 0 and all(a == scale * c for a, c in zip(A, cs))


def sign_variations(chain, x) -> int:
    signs = [v > 0 for v in (horner(f, x) for f in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def squarefree_part(p: RationalPoly) -> RationalPoly:
    a, b = p, derivative(p)
    while b:
        a, b = b, divide(a, b)[1]
    return p if a.degree <= 0 else divide(p, mul(1 / a.coeffs[-1], a))[0]


def sturm_prepare(p: RationalPoly, a: Fraction, b: Fraction):
    """(f, chain) as ``ratpoly._sturm_prepare`` defines them."""
    if p.degree > 0 and horner(p, a) and horner(p, b):
        chain = sturm_chain(p)
        if chain[-1].degree == 0:
            return p, chain
    f = squarefree_part(p)
    for pt in (a, b):
        while f and horner(f, pt) == 0:
            f = divide(f, from_roots((pt,)))[0]
    return f, (sturm_chain(f) if f.degree > 0 else [])


def isolate(f: RationalPoly, chain, a: Fraction, b: Fraction):
    """Isolating intervals of f's roots in (a, b), sorted left to right."""
    found = []

    def narrow(f, lo, hi):
        lo_positive = horner(f, lo) > 0
        while hi - lo > ISOLATION_WIDTH:
            mid = (lo + hi) / 2
            v = horner(f, mid)
            if v == 0:
                return mid, mid
            if (v > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def recurse(f, chain, lo, hi):
        n = sign_variations(chain, lo) - sign_variations(chain, hi)
        if n == 0:
            return
        if n == 1:
            found.append(narrow(f, lo, hi))
            return
        mid = (lo + hi) / 2
        if horner(f, mid) == 0:
            found.append((mid, mid))
            f = divide(f, from_roots((mid,)))[0]
            chain = sturm_chain(f)
        recurse(f, chain, lo, mid)
        recurse(f, chain, mid, hi)

    if f.degree > 0:
        recurse(f, chain, a, b)
    found.sort(key=lambda iv: iv[0])
    return found


def certify(phi: RationalPoly, interval) -> Certificate:
    """``algebra.certify_nonvanishing`` on the Fraction oracle."""
    lo, hi = as_fraction(interval[0]), as_fraction(interval[1])
    f, chain = sturm_prepare(phi, lo, hi)
    n = sign_variations(chain, lo) - sign_variations(chain, hi)
    intervals = isolate(f, chain, lo, hi) if n else []
    assert len(intervals) == n
    return Certificate((lo, hi), not intervals, tuple(intervals))
