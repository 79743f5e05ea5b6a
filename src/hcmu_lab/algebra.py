"""Exact kernel for the obstruction cubic of an extremal curvature pair.

P is the cubic attached to a pair of extremal curvature values (k1, k2):

    P(K) = -(4/3) (K - k1) (K - k2) (K + k1 + k2)

so the third root is k3 = -(k1 + k2) and the expansion has no quadratic
term.  The metric's mu satisfies mu^2 = P(K).  d/dK extends uniquely to
the quadratic extension Q(K)[mu], with mu' = P' / (2 P) * mu, and the
Leibniz rule on mu^2 = P gives two exact identities:

    2 mu mu'          = P'(K)
    mu mu'' + (mu')^2 = P''(K) / 2 = -4 K

The obstruction polynomial of an ambient curvature c,

    Phi(K, c) = 4 mu'' mu (K-c)^2 + 4 (mu')^2 (K-c)^2 + 2 mu' mu (K-c) - mu^2,

is therefore the plain polynomial 2 (K-c)^2 P'' + (K-c) P' - P; the kernel
forms its coefficients directly (``obstruction_poly``), and the test suite
proves both identities with zero remainder in the extension itself and keeps
that product form as an oracle (``tests/mu_extension.py``).  Phi is a cubic
in K whose leading coefficient is -56/3 for every admissible (k1, k2, c), so
Phi is never the zero polynomial: the non-existence certificate of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import AlgebraConsistencyError, InadmissibleParams
from .ratpoly import (
    RationalPoly,
    as_fraction,
    first_nonroot,
    isolate_roots,
    poly_to_line,
)
from .textio import write_lines


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
        # p1 = (4/3)(k1^2 + k1 k2 + k2^2) and p0 = -(4/3) k1 k2 (k1 + k2),
        # each reduced once: with k1 = n1/d1 = u/(d1 d2) and
        # k2 = n2/d2 = v/(d1 d2), both are over 3 (d1 d2)^2
        n1, d1 = k1.numerator, k1.denominator
        n2, d2 = k2.numerator, k2.denominator
        u, v, den = n1 * d2, n2 * d1, 3 * (d1 * d2) ** 2
        p1 = Fraction(4 * (u * u + u * v + v * v), den)
        p0 = Fraction(-4 * n1 * n2 * (u + v), den)
        return cls(k1, k2, k3, p1, p0)

    def __post_init__(self):
        if self.k3 != -(self.k1 + self.k2):
            raise AlgebraConsistencyError("k3 != -(k1 + k2)")
        root = first_nonroot(self.poly(), (self.k1, self.k2, self.k3))
        if root is not None:
            raise AlgebraConsistencyError(f"P({root}) != 0")

    @property
    def kind(self) -> str:
        return admissible_kind(self.k1, self.k2)

    def poly(self) -> RationalPoly:
        return RationalPoly((self.p0, self.p1, 0, Fraction(-4, 3)))


def obstruction_poly(params: CubicData, c) -> RationalPoly:
    """The cubic Phi(K, c) whose identical vanishing the theory forbids.

    With P = a3 K^3 + a2 K^2 + a1 K + a0, Phi = 2 (K-c)^2 P'' + (K-c) P' - P
    has the coefficients 14 a3, 5 a2 - 27 a3 c, 12 a3 c^2 - 10 a2 c and
    4 a2 c^2 - a1 c - a0, from K^3 down: no polynomial product.  The result
    must have degree exactly 3; otherwise the cubic data is corrupted and we
    refuse to answer.
    """
    c = as_fraction(c)
    a0, a1, a2, a3 = (params.poly().coeffs + (0, 0, 0))[:4]
    phi = RationalPoly((4 * a2 * c * c - a1 * c - a0,
                        12 * a3 * c * c - 10 * a2 * c,
                        5 * a2 - 27 * a3 * c, 14 * a3))
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
    intervals = isolate_roots(phi, lo, hi)
    return Certificate((lo, hi), not intervals, tuple(intervals))


def write_obstruction_file(phi: RationalPoly, cert: Certificate, path):
    """First line: coefficients degree-descending; then the certificate."""
    write_lines(chain([poly_to_line(phi)], cert.to_lines()), path)
