"""Exact kernel for the quadratic extension Q(K)[mu] with mu^2 = P(K).

P is the cubic attached to a pair of extremal curvature values (k1, k2):

    P(K) = -(4/3) (K - k1) (K - k2) (K + k1 + k2)

so the third root is k3 = -(k1 + k2) and the expansion has no quadratic
term.  Elements a(K) + b(K) mu are differentiated with the derivation that
extends d/dK and satisfies (mu^2)' = P', i.e.

    mu' = P' / (2 P) * mu.

That division by P is the only one the kernel makes, so every element is
stored as (a + b mu) / P^k with polynomials a, b: the arithmetic stays in
Q[K] plus exact division by P, and needs no polynomial gcd.

Two consequences used throughout the workbench, both exact:

    2 mu mu'          = P'(K)
    mu mu'' + (mu')^2 = P''(K) / 2 = -4 K

The obstruction polynomial of an ambient curvature c,

    Phi(K, c) = 4 mu'' mu (K-c)^2 + 4 (mu')^2 (K-c)^2 + 2 mu' mu (K-c) - mu^2,

reduces to a pure cubic in K whose leading coefficient is -56/3 for every
admissible (k1, k2, c); since that never vanishes, Phi is never the zero
polynomial, which is the non-existence certificate this module produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import AlgebraConsistencyError, FormatError, InadmissibleParams
from .ratpoly import (
    RationalPoly,
    _isolate,
    _sturm_prepare,
    as_fraction,
    poly_to_line,
    sign_variations,
)
from .textio import kv_records, write_lines


def admissible_kind(k1, k2) -> str:
    """"conical" or "cusp" for admissible extremal values, else raise.

    The one admissibility rule, for exact Fractions and floats alike:
    K1 > 0, and either the cusp K2 = -K1/2 or K1 > K2 > -(K1 + K2).  An
    InadmissibleParams names the first inequality that fails.
    """
    if not k1 > 0:
        raise InadmissibleParams(f"K1 = {k1} violates K1 > 0", "K1 > 0")
    if k2 == -k1 / 2:
        return "cusp"
    if not k1 > k2:
        raise InadmissibleParams(f"(K1, K2) = ({k1}, {k2}) violates K1 > K2",
                                 "K1 > K2")
    if not k2 > -(k1 + k2):
        raise InadmissibleParams(
            f"(K1, K2) = ({k1}, {k2}) violates K2 > -(K1 + K2)",
            "K2 > -(K1 + K2)",
        )
    return "conical"


@dataclass(frozen=True)
class CubicData:
    """Exact cubic data derived from the extremal values (k1, k2).

    p1 and p0 are the odd coefficients of P(K) = -(4/3)K^3 + p1 K + p0;
    they are always derived from (k1, k2) by exact expansion of the product
    form, never set independently.
    """

    k1: Fraction
    k2: Fraction
    k3: Fraction
    p1: Fraction
    p0: Fraction

    @classmethod
    def from_extremes(cls, k1, k2) -> "CubicData":
        k1, k2 = as_fraction(k1), as_fraction(k2)
        admissible_kind(k1, k2)
        k3 = -(k1 + k2)
        p1 = Fraction(4, 3) * (k1 * k1 + k1 * k2 + k2 * k2)
        p0 = -Fraction(4, 3) * k1 * k2 * (k1 + k2)
        return cls(k1, k2, k3, p1, p0)

    def __post_init__(self):
        if self.k3 != -(self.k1 + self.k2):
            raise AlgebraConsistencyError("k3 != -(k1 + k2)")
        P = self.poly()
        for root in (self.k1, self.k2, self.k3):
            if P(root) != 0:
                raise AlgebraConsistencyError(f"P({root}) != 0")

    @property
    def kind(self) -> str:
        return admissible_kind(self.k1, self.k2)

    def poly(self) -> RationalPoly:
        return RationalPoly((self.p0, self.p1, 0, Fraction(-4, 3)))


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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

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


def obstruction_poly(params: CubicData, c) -> RationalPoly:
    """The cubic Phi(K, c) whose identical vanishing the theory forbids.

    Built entirely inside the mu-algebra, in Horner form in K - c:

        Phi = ((4 mu'' mu + 4 mu'^2) (K-c) + 2 mu' mu) (K-c) - mu^2
            = ((mu'' mu + mu'^2) s + mu' mu) s - mu^2,   s = 2 (K - c),

    with the integer factors kept in the polynomial s, so the expansion
    takes six products in the algebra, four of them between elements with
    a mu-part.  The mu-component must cancel and the denominator must
    clear, leaving a polynomial of degree exactly 3; otherwise the cubic
    data is corrupted and we refuse to answer.
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
    phi = phi_el.as_polynomial()
    if phi.degree != 3:
        raise AlgebraConsistencyError(f"obstruction degree {phi.degree} != 3")
    return phi


@dataclass(frozen=True)
class Certificate:
    """Root accounting for a nonzero polynomial on an open interval.

    ``root_free`` means no root lies in the open interval; otherwise
    ``root_intervals`` holds disjoint exact isolating intervals (degenerate
    pairs are exact rational roots).  Each non-degenerate interval is no
    wider than ``ratpoly.ISOLATION_WIDTH`` and brackets a sign change of
    the polynomial's square-free part.  Either way the polynomial is
    certified nonzero, which is what the non-existence argument needs; the
    intervals only record exceptional parameter values, located to within
    that width.
    """

    interval: tuple[Fraction, Fraction]
    root_free: bool
    root_intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def verdict(self) -> str:
        return "no-root" if self.root_free else "roots-isolated"

    def __str__(self):
        lo, hi = self.interval
        if self.root_free:
            return f"no root in ({lo}, {hi})"
        return f"{len(self.root_intervals)} root(s) isolated in ({lo}, {hi})"

    def to_lines(self) -> list[str]:
        lo, hi = self.interval
        lines = [f"verdict={self.verdict}", f"interval={lo} {hi}",
                 f"root_count={len(self.root_intervals)}"]
        for a, b in self.root_intervals:
            lines.append(f"root_interval={a} {b}")
        return lines


def certificate_from_lines(lines) -> Certificate:
    verdict = None
    interval = None
    roots = []
    declared = None
    for ln, key, value in kv_records(lines):
        try:
            if key == "verdict":
                verdict = value
            elif key == "interval":
                a, b = value.split()
                interval = (as_fraction(a), as_fraction(b))
            elif key == "root_count":
                declared = int(value)
            elif key == "root_interval":
                a, b = value.split()
                roots.append((as_fraction(a), as_fraction(b)))
            else:
                raise FormatError(f"unknown certificate key {key!r}", ln)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad certificate value: {e}", ln) from None
    if verdict not in ("no-root", "roots-isolated") or interval is None:
        raise FormatError("incomplete certificate record")
    if declared is not None and declared != len(roots):
        raise FormatError("root_count disagrees with root_interval lines")
    if (verdict == "no-root") != (not roots):
        raise FormatError("verdict disagrees with root_interval lines")
    return Certificate(interval, verdict == "no-root", tuple(roots))


def certify_nonvanishing(phi: RationalPoly, interval) -> Certificate:
    """Decide whether phi has a root in the open interval, exactly.

    Uses Sturm sign-variation counts; when roots exist they are isolated
    into disjoint rational intervals by bisection, each no wider than
    ``ratpoly.ISOLATION_WIDTH`` and bracketing a sign change of phi's
    square-free part (see ``ratpoly.isolate_roots``).  A zero polynomial is
    a contract violation upstream and is rejected.
    """
    lo, hi = as_fraction(interval[0]), as_fraction(interval[1])
    if phi.is_zero():
        raise ValueError("zero polynomial cannot be certified nonvanishing")
    if not lo < hi:
        raise ValueError("degenerate interval")
    # one Sturm chain serves the count and the isolation
    f, chain = _sturm_prepare(phi, lo, hi)
    n = sign_variations(chain, lo) - sign_variations(chain, hi)
    if n == 0:
        return Certificate((lo, hi), True, ())
    intervals = _isolate(f, chain, lo, hi)
    if len(intervals) != n:
        raise AlgebraConsistencyError("isolation disagrees with Sturm count")
    return Certificate((lo, hi), False, tuple(intervals))


def write_obstruction_file(phi: RationalPoly, cert: Certificate, path):
    """First line: coefficients degree-descending; then the certificate."""
    write_lines(chain([poly_to_line(phi)], cert.to_lines()), path)
