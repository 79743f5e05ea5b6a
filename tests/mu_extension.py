"""The quadratic extension Q(K)[mu], mu^2 = P(K), as a test oracle.

``algebra.obstruction_poly`` builds Phi from the coefficient formulas of
its closed form 2 (K-c)^2 P'' + (K-c) P' - P.  This module keeps the
extension that closed form comes from, so that the tests can prove its two
identities with zero remainder and build Phi independently of the kernel,
and the closed form itself, built with polynomial products
(``product_form_obstruction``).

d/dK extends to the extension with (mu^2)' = P', i.e.

    mu' = P' / (2 P) * mu.

That division by P is the only one, so every element is stored as
(a + b mu) / P^k with polynomials a, b: the arithmetic stays in Q[K] plus
exact division by P, and needs no polynomial gcd.
"""

from __future__ import annotations

from fractions import Fraction

from hcmu_lab.algebra import CubicData
from hcmu_lab.errors import AlgebraConsistencyError
from hcmu_lab.ratpoly import RationalPoly, as_fraction


def expand_mu_square(params: CubicData) -> RationalPoly:
    """Expand -(4/3)(K - k1)(K - k2)(K - k3) into coefficient form."""
    P = RationalPoly.from_roots(
        (params.k1, params.k2, params.k3), lead=Fraction(-4, 3)
    )
    if P.degree != 3 or P.leading != Fraction(-4, 3):
        raise AlgebraConsistencyError("cubic expansion lost its shape")
    return P


class MuElement:
    """Element (a(K) + b(K) mu) / P(K)^k of the extension, with mu^2 = P(K).

    a and b are polynomials and k >= 0.  The triple is kept reduced (k = 0,
    or P does not divide both a and b), which makes it unique: equality
    compares components.  Reduction stops as soon as P cannot divide a or b
    (nonzero and of lower degree, or a remainder left).  Binary operations
    require matching P.
    """

    __slots__ = ("a", "b", "k", "P")

    def __init__(self, a, b, P: RationalPoly, k: int = 0):
        if P.is_zero():
            raise ZeroDivisionError("extension over the zero polynomial")
        a = a if isinstance(a, RationalPoly) else RationalPoly.constant(a)
        b = b if isinstance(b, RationalPoly) else RationalPoly.constant(b)
        while k and all(x.degree >= P.degree or not x for x in (a, b)):
            qa, ra = divmod(a, P)
            if ra:
                break
            qb, rb = divmod(b, P)
            if rb:
                break
            a, b, k = qa, qb, k - 1
        self.a, self.b, self.k, self.P = a, b, k, P

    # -- constructors --------------------------------------------------------

    @classmethod
    def mu(cls, P: RationalPoly) -> "MuElement":
        return cls(0, 1, P)

    @classmethod
    def var(cls, P: RationalPoly) -> "MuElement":
        return cls(RationalPoly.x(), 0, P)

    @classmethod
    def scalar(cls, c, P: RationalPoly) -> "MuElement":
        return cls(c, 0, P)

    # -- structure -----------------------------------------------------------

    def is_pure(self) -> bool:
        """True when the mu-component vanishes identically."""
        return self.b.is_zero()

    def as_polynomial(self) -> RationalPoly:
        if not self.is_pure():
            raise AlgebraConsistencyError("mu-component survives reduction")
        if self.k:
            raise ValueError("element is not a polynomial")
        return self.a

    def __eq__(self, other):
        if not isinstance(other, MuElement):
            return NotImplemented
        return (self.P == other.P and self.k == other.k and self.a == other.a
                and self.b == other.b)

    def __hash__(self):
        return hash((self.a, self.b, self.k, self.P))

    def __repr__(self):
        return f"MuElement(a={self.a!r}, b={self.b!r}, k={self.k})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # lift the operand with the smaller denominator to the other's P^k
        hi, lo = (self, other) if self.k >= other.k else (other, self)
        s = self.P ** (hi.k - lo.k)
        return MuElement(hi.a + lo.a * s, hi.b + lo.b * s, self.P, hi.k)

    __radd__ = __add__

    def __neg__(self):
        return MuElement(-self.a, -self.b, self.P, self.k)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return MuElement(a1 * a2 + b1 * b2 * self.P, a1 * b2 + a2 * b1,
                         self.P, self.k + other.k)

    __rmul__ = __mul__

    def _coerce(self, v):
        if isinstance(v, (int, Fraction, RationalPoly)):
            return MuElement(v, 0, self.P)
        if not isinstance(v, MuElement):
            return None
        if v.P != self.P:
            raise ValueError("elements live over different cubics")
        return v

    def evaluate(self, k0, mu0):
        """Evaluate at a rational point where mu takes the rational value mu0.

        For k > 0 a root of P is a pole: ZeroDivisionError.
        """
        return (self.a(k0) + self.b(k0) * mu0) / self.P(k0) ** self.k


def derive(elem: MuElement) -> MuElement:
    """d/dK on the extension over elem.P, from mu' = P'/(2P) mu:

    ((a + b mu)/P^k)' = (P a' - k P' a + (P b' + (1/2 - k) P' b) mu)/P^(k+1).
    """
    P, a, b, k = elem.P, elem.a, elem.b, elem.k
    dP = P.derivative()
    return MuElement(P * a.derivative() - k * dP * a,
                     P * b.derivative() + (Fraction(1, 2) - k) * dP * b,
                     P, k + 1)


def obstruction(params: CubicData, c) -> RationalPoly:
    """Phi(K, c) expanded inside the extension, in Horner form in K - c:

        Phi = ((4 mu'' mu + 4 mu'^2) (K-c) + 2 mu' mu) (K-c) - mu^2
            = ((mu'' mu + mu'^2) s + mu' mu) s - mu^2,   s = 2 (K - c).

    The mu-component must cancel and the denominator must clear; either
    failure raises AlgebraConsistencyError.
    """
    c = as_fraction(c)
    P = params.poly()
    mu = MuElement.mu(P)
    mu1 = derive(mu)
    mu2 = derive(mu1)
    s = RationalPoly((-2 * c, 2))
    phi_el = ((mu2 * mu + mu1 * mu1) * s + mu1 * mu) * s - mu * mu
    if not phi_el.is_pure():
        raise AlgebraConsistencyError("obstruction kept a mu-component")
    if phi_el.k:
        raise AlgebraConsistencyError("obstruction kept a denominator")
    return phi_el.as_polynomial()


def product_form_obstruction(params: CubicData, c) -> RationalPoly:
    """Phi = 2 t^2 P'' + t P' - P with t = K - c, by polynomial arithmetic:
    three products (t t, that square by 2 P'', and t P'), two derivatives
    and a sum, sharing no step with the kernel's coefficient formulas."""
    c = as_fraction(c)
    P = params.poly()
    dP = P.derivative()
    t = RationalPoly((-c, 1))
    return t * t * (2 * dP.derivative()) + t * dP - P
