"""Exact kernel for the quadratic extension Q(K)[mu] with mu^2 = P(K).

P is the cubic attached to a pair of extremal curvature values (k1, k2):

    P(K) = -(4/3) (K - k1) (K - k2) (K + k1 + k2)

so the third root is k3 = -(k1 + k2) and the expansion has no quadratic
term.  Elements a(K) + b(K) mu are differentiated with the derivation that
extends d/dK and satisfies (mu^2)' = P', i.e.

    mu' = P' / (2 P) * mu.

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
    RationalFunction,
    RationalPoly,
    as_fraction,
    count_roots_between,
    isolate_roots,
    poly_to_line,
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
    """Element a(K) + b(K) mu of the extension, with mu^2 = P(K).

    a and b are reduced rational functions; equality therefore reduces to
    componentwise equality.  Binary operations require matching P.
    """

    __slots__ = ("a", "b", "P")

    def __init__(self, a, b, P: RationalPoly):
        if P.is_zero():
            raise ZeroDivisionError("extension over the zero polynomial")
        self.a = a if isinstance(a, RationalFunction) else RationalFunction(a)
        self.b = b if isinstance(b, RationalFunction) else RationalFunction(b)
        self.P = P

    # -- constructors --------------------------------------------------------

    @classmethod
    def mu(cls, P: RationalPoly) -> "MuElement":
        return cls(RationalFunction.zero(), RationalFunction.one(), P)

    @classmethod
    def var(cls, P: RationalPoly) -> "MuElement":
        return cls(RationalFunction(RationalPoly.x()), RationalFunction.zero(), P)

    @classmethod
    def scalar(cls, c, P: RationalPoly) -> "MuElement":
        return cls(RationalFunction(RationalPoly.constant(as_fraction(c))),
                   RationalFunction.zero(), P)

    # -- structure -----------------------------------------------------------

    def is_pure(self) -> bool:
        """True when the mu-component vanishes identically."""
        return self.b.is_zero()

    def as_polynomial(self) -> RationalPoly:
        if not self.is_pure():
            raise AlgebraConsistencyError("mu-component survives reduction")
        return self.a.as_polynomial()

    def __eq__(self, other):
        if not isinstance(other, MuElement):
            return NotImplemented
        return self.P == other.P and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.P))

    def __repr__(self):
        return f"MuElement(a={self.a!r}, b={self.b!r})"

    def _check(self, other: "MuElement"):
        if self.P != other.P:
            raise ValueError("elements live over different cubics")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        return MuElement(self.a + other.a, self.b + other.b, self.P)

    __radd__ = __add__

    def __neg__(self):
        return MuElement(-self.a, -self.b, self.P)

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
        self._check(other)
        Prf = RationalFunction(self.P)
        a = self.a * other.a + self.b * other.b * Prf
        b = self.a * other.b + self.b * other.a
        return MuElement(a, b, self.P)

    __rmul__ = __mul__

    def _coerce(self, v):
        if isinstance(v, MuElement):
            return v
        if isinstance(v, (int, Fraction)):
            return MuElement.scalar(v, self.P)
        if isinstance(v, (RationalPoly, RationalFunction)):
            return MuElement(RationalFunction(v) if isinstance(v, RationalPoly) else v,
                             RationalFunction.zero(), self.P)
        return None

    def evaluate(self, k0, mu0):
        """Evaluate at a rational point where mu takes the rational value mu0."""
        return self.a(k0) + self.b(k0) * mu0


def derive(elem: MuElement, P: RationalPoly | None = None) -> MuElement:
    """d/dK on the extension: (a + b mu)' = a' + (b' + b P'/(2P)) mu."""
    if P is None:
        P = elem.P
    if P.is_zero():
        raise ZeroDivisionError("derivation over the zero polynomial")
    if P != elem.P:
        raise ValueError("element does not live over the supplied cubic")
    ratio = RationalFunction(P.derivative(), 2 * P)
    return MuElement(elem.a.derivative(), elem.b.derivative() + elem.b * ratio, P)


def obstruction_poly(params: CubicData, c) -> RationalPoly:
    """The cubic Phi(K, c) whose identical vanishing the theory forbids.

    Built entirely inside the mu-algebra; the mu-component must cancel and
    the rational-function part must clear to a polynomial of degree exactly
    3, otherwise the cubic data is corrupted and we refuse to answer.
    """
    c = as_fraction(c)
    P = params.poly()
    mu = MuElement.mu(P)
    mu1 = derive(mu)
    mu2 = derive(mu1)
    K = MuElement.var(P)
    t = K - MuElement.scalar(c, P)
    phi_el = 4 * (mu2 * mu) * t * t + 4 * (mu1 * mu1) * t * t + 2 * (mu1 * mu) * t - mu * mu
    if not phi_el.is_pure():
        raise AlgebraConsistencyError("obstruction kept a mu-component")
    if not phi_el.a.is_polynomial():
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
                interval = (Fraction(a), Fraction(b))
            elif key == "root_count":
                declared = int(value)
            elif key == "root_interval":
                a, b = value.split()
                roots.append((Fraction(a), Fraction(b)))
            else:
                raise FormatError(f"unknown certificate key {key!r}", ln)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad certificate value: {e}", ln) from None
    if verdict not in ("no-root", "roots-isolated") or interval is None:
        raise FormatError("incomplete certificate record")
    if declared is not None and declared != len(roots):
        raise FormatError("root_count disagrees with root_interval lines")
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
    n = count_roots_between(phi, lo, hi)
    if n == 0:
        return Certificate((lo, hi), True, ())
    intervals = isolate_roots(phi, lo, hi)
    if len(intervals) != n:
        raise AlgebraConsistencyError("isolation disagrees with Sturm count")
    return Certificate((lo, hi), False, tuple(intervals))


def write_obstruction_file(phi: RationalPoly, cert: Certificate, path):
    """First line: coefficients degree-descending; then the certificate."""
    write_lines(chain([poly_to_line(phi)], cert.to_lines()), path)
