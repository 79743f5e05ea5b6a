"""Polynomial arithmetic over Q, in schoolbook form, for the test oracles.

``hcmu_lab.ratpoly.RationalPoly`` is a coefficient tuple with no
arithmetic: the kernel forms Phi's coefficients directly and certifies it
on integers.  The oracles (``mu_extension``, ``sturm_reference``) and the
tests that build polynomials by hand use these functions instead.  They
take no shortcut (no product by a constant, no sum with zero, no early
stop), and every one takes RationalPolys or exact scalars (an int or a
Fraction stands for a constant polynomial) and returns a RationalPoly, so
every coefficient is a Fraction.  Evaluation is ``sturm_reference.horner``.
"""

from __future__ import annotations

from fractions import Fraction

from hcmu_lab.ratpoly import RationalPoly, as_fraction


def poly(v) -> RationalPoly:
    """v itself, or the constant polynomial v for an int or a Fraction."""
    return v if isinstance(v, RationalPoly) else RationalPoly((v,))


def add(*terms) -> RationalPoly:
    out: list[Fraction] = []
    for t in (poly(v).coeffs for v in terms):
        out += [Fraction(0)] * (len(t) - len(out))
        for i, c in enumerate(t):
            out[i] += c
    return RationalPoly(out)


def sub(a, b) -> RationalPoly:
    return add(a, mul(-1, b))


def mul(*factors) -> RationalPoly:
    out = (Fraction(1),)
    for f in (poly(v).coeffs for v in factors):
        prod = [Fraction(0)] * max(len(out) + len(f) - 1, 0)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return RationalPoly(out)


def power(p, n: int) -> RationalPoly:
    if n < 0:
        raise ValueError("negative power of a polynomial")
    return mul(*[p] * n)


def divide(a, b) -> tuple[RationalPoly, RationalPoly]:
    """(q, r) with a = q b + r and deg r < deg b."""
    a, b = poly(a).coeffs, poly(b).coeffs
    if not b:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    for k in reversed(range(len(q))):
        f = rem[k + len(b) - 1] / b[-1]
        q[k] = f
        for i, y in enumerate(b):
            rem[k + i] -= f * y
    return RationalPoly(q), RationalPoly(rem)


def derivative(p: RationalPoly) -> RationalPoly:
    return RationalPoly(k * c for k, c in enumerate(p.coeffs) if k)


def from_roots(roots, lead=1) -> RationalPoly:
    """lead times the product of (K - r) over roots."""
    return mul(lead, *[RationalPoly((-as_fraction(r), 1)) for r in roots])
