"""Exact univariate polynomial arithmetic over Q.

Coefficients are fractions.Fraction, and so is every value the module
returns; no floating point enters any arithmetic path.  Polynomials are
coefficient tuples indexed by degree, with exact division with remainder;
the module has no rational functions.

Arithmetic results skip the constructor's coefficient check, a product
by a constant only scales, and a sum with zero is the other operand.

Evaluation and the certificate's sign work run on integers.  A polynomial
is taken as integer numerators A over one positive denominator D, so that
at x = n/d (d > 0) its value is the integer d^k A(n/d) over D d^k, and its
sign is that integer's: a sign test builds no Fraction.

Root counting and isolation use Sturm sequences, evaluated exactly at
rational points.  The chain is built by integer pseudo-remainders with the
content divided out: each member is a positive multiple of the canonical
member, so every sign, and every count, is the canonical one.  It is the
polynomial's own chain, or, when that chain's tail is not constant or the
polynomial vanishes at an end n/d, the chain of its integer quotient by
that tail and by d K - n.  Isolation bisects until the count shows one
distinct real root in an interval (an exact root met at a midpoint is
divided out the same way, under a new chain), then narrows the interval
by exact bisection, on sign tests alone and on numerators over one dyadic
denominator, until it is no wider than ``ISOLATION_WIDTH``.  The
square-free polynomial the count certified changes sign across every
returned non-degenerate interval, and never vanishes at its endpoints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import FormatError

# Target width of an isolating interval, 2^-_WIDTH_BITS.  A box midpoint
# is then within 2^-33 (about 1.2e-10) of its root, close enough to stand
# in for the root in float code, and narrowing a unit-wide box takes 32
# exact bisections.
_WIDTH_BITS = 32
ISOLATION_WIDTH = Fraction(1, 1 << _WIDTH_BITS)


# Largest decimal exponent, in absolute value, that text may carry.  It is
# CPython's default int digit limit: Fraction('1e100000000') would build a
# hundred-million-digit integer, in time growing faster than the exponent.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def as_fraction(v) -> Fraction:
    """v as an exact rational; the one place where text becomes a Fraction.

    Text takes Fraction's forms ("-1/2", "1e-3", "2.5E+2").  Text whose
    decimal exponent exceeds MAX_DECIMAL_EXPONENT in absolute value raises
    ValueError before any integer is built from it.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        m = _EXPONENT.search(v)
        if m and abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {v!r} exceeds "
                             f"{MAX_DECIMAL_EXPONENT} in absolute value")
    elif not isinstance(v, int):
        raise TypeError(f"not an exact rational: {v!r}")
    return Fraction(v)


class RationalPoly:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of ``K**k``.  Trailing zeros are
    stripped; the zero polynomial has ``coeffs == ()`` and degree -1.
    Instances are immutable by convention and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list) -> "RationalPoly":
        # arithmetic results: cs is a list of Fractions, taken over as it is
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls((as_fraction(c),))

    @classmethod
    def from_roots(cls, roots, lead=1) -> "RationalPoly":
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(as_fraction(other))
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if len(self.coeffs) == 1:
            return other._scaled(self.coeffs[0])
        if len(other.coeffs) == 1:
            return self._scaled(other.coeffs[0])
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly._of(out)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "RationalPoly":
        # a product by the constant c; by 1 it is self
        if c == 1:
            return self
        return RationalPoly._of([c * a for a in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = RationalPoly.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: "RationalPoly"):
        if not isinstance(other, RationalPoly):
            other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.leading
        dn = other.degree
        while len(rem) - 1 >= dn and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            f = rem[-1] / dlead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return RationalPoly._of(q), RationalPoly._of(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus / evaluation -----------------------------------------------

    def derivative(self) -> "RationalPoly":
        return RationalPoly._of([k * c for k, c in enumerate(self.coeffs) if k > 0])

    def __call__(self, x) -> Fraction:
        """Exact value at x = as_fraction(x) = n/d, never in floats.

        With the coefficients as numerators A over one denominator D, it is
        the integer d^k A(n/d) over D d^k: one Fraction, reduced once.
        """
        x = as_fraction(x)
        A, D = _over_denominator(self.coeffs)
        d = x.denominator
        return Fraction(_value_at(A, x.numerator, d),
                        D * d ** max(len(A) - 1, 0))


def _over_denominator(cs) -> tuple[list[int], int]:
    """(A, D): integers A, leading first, and D > 0 with cs == A / D.

    cs are Fraction coefficients, lowest degree first, as in ``coeffs``.
    """
    D = lcm(*[c.denominator for c in cs])
    return [c.numerator * (D // c.denominator) for c in reversed(cs)], D


def _value_at(A, n: int, d: int) -> int:
    """d^k A(n/d) for integers A of degree k, leading first.

    For d > 0 it has the sign of A at n/d; homogeneous Horner in integers.
    """
    it = iter(A)
    acc = next(it, 0)
    dp = 1
    for c in it:
        dp *= d
        acc = acc * n + c * dp
    return acc


def _primitive(A: list[int]) -> list[int]:
    """A with its content divided out: a positive multiple of A."""
    g = gcd(*A)
    return [c // g for c in A] if g > 1 else A


def _pseudo_divmod(a, b) -> tuple[list[int], list[int]]:
    """(q, r) with |lc(b)|^(e+1) a = q b + r and deg r < deg b, leading first.

    e = deg a - deg b >= 0.  The multiplier makes every quotient digit an
    exact integer, and it is positive, so q and r are positive multiples
    of the quotient and the remainder of a by b over Q.
    """
    lb = b[0]
    steps = len(a) - len(b) + 1
    r = [c * abs(lb) ** steps for c in a]
    q = []
    for i in range(steps):
        q.append(r[i] // lb)
        if q[i]:
            for j, c in enumerate(b, i):
                r[j] -= q[i] * c
    return q, r[steps:]


def _next_member(a, b) -> list[int]:
    """-prem(a, b) without its content: a positive multiple of -rem(a, b),
    leading first, and [] when b divides a."""
    r = _pseudo_divmod(a, b)[1]
    while r and not r[0]:
        r.pop(0)
    g = gcd(*r)
    return [-c // g for c in r]


def _quotient(a, b) -> list[int]:
    """a / b for b dividing a, primitive and with a's leading sign."""
    q = _primitive(_pseudo_divmod(a, b)[0])
    return q if b[0] > 0 else [-c for c in q]


def _coerce(v):
    if isinstance(v, RationalPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalPoly.constant(v)
    return None


def sturm_sequence(A: list[int]) -> list[list[int]]:
    """Sturm chain of the integer polynomial A (leading first), on integers.

    The members are A, A' and ``_next_member`` pseudo-remainders (Collins
    1967): each one after A is primitive, and each is a positive multiple
    of the canonical member of A, A', -rem(A, A'), ..., so the chain has
    the canonical one's signs at every point.  Its last member is
    gcd(A, A') up to a factor: a nonzero constant exactly when A is
    square-free.
    """
    k = len(A) - 1
    chain = [A]
    if k > 0:
        chain.append(_primitive([(k - i) * c for i, c in enumerate(A[:k])]))
        while len(chain[-1]) > 1:
            r = _next_member(chain[-2], chain[-1])
            if not r:
                break
            chain.append(r)
    return chain


def sign_variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along a ``sturm_sequence`` chain at x, zeros skipped."""
    x = as_fraction(x)
    n, d = x.numerator, x.denominator
    signs = [v > 0 for v in (_value_at(A, n, d) for A in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_prepare(p: RationalPoly, a: Fraction, b: Fraction) -> list[list[int]]:
    """Sturm chain of p's square-free part with its roots at a and b
    divided out.

    p's own chain is built first.  When its last member is not constant,
    p becomes its integer quotient by it; then an end n/d where p
    vanishes is divided out as d K - n.  Only if p changed is a second
    chain built.  ``_isolate`` takes the same chain, so a caller that both
    counts and isolates (``algebra.certify_nonvanishing``) builds it once.
    """
    chain = sturm_sequence(_primitive(_over_denominator(p.coeffs)[0]))
    A = chain[0]
    if len(chain[-1]) > 1:
        A = _quotient(A, chain[-1])
    # A is square-free, so each end is at most a simple root
    for x in (a, b):
        if not _value_at(A, x.numerator, x.denominator):
            A = _quotient(A, [x.denominator, -x.numerator])
    return chain if A is chain[0] else sturm_sequence(A)


def count_roots_between(p: RationalPoly, a, b) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    a, b = as_fraction(a), as_fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    chain = _sturm_prepare(p, a, b)
    return sign_variations(chain, a) - sign_variations(chain, b)


def isolate_roots(p: RationalPoly, a, b) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals in (a, b), each holding one distinct root.

    Every interval is no wider than ``ISOLATION_WIDTH``.  Exact rational
    roots met on the way are returned as degenerate pairs (r, r).  Across
    every other interval the square-free part of p (with those exact roots
    divided out) takes opposite, nonzero signs at the two ends.  Intervals
    are sorted left to right.  The work runs on ``_sturm_prepare``'s chain.
    """
    a, b = as_fraction(a), as_fraction(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _isolate(_sturm_prepare(p, a, b), a, b)


def _narrow(A, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi) bisected to ``ISOLATION_WIDTH``, or (r, r) at a root r met.

    A (leading first) is square-free with one simple root in (lo, hi) and
    none at the ends, so its sign flips across the root: bisect on signs
    alone, with lo = a/q and hi = b/q over one denominator q.
    """
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    a_positive = _value_at(A, a, q) > 0
    while (b - a) << _WIDTH_BITS > q:
        m, a, b, q = a + b, a << 1, b << 1, q << 1
        v = _value_at(A, m, q)
        if not v:
            mid = Fraction(m, q)
            return mid, mid
        if (v > 0) == a_positive:
            a = m
        else:
            b = m
    return Fraction(a, q), Fraction(b, q)


def _isolate(chain: list[list[int]], a: Fraction,
             b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """`isolate_roots` on a chain made by `_sturm_prepare`."""
    found: list[tuple[Fraction, Fraction]] = []
    # (chain, lo, hi, n_lo, n_hi): chain[0] is square-free and nonzero at
    # lo and hi, and n_lo, n_hi are the chain's sign variations there
    todo = [(chain, a, b, sign_variations(chain, a),
             sign_variations(chain, b))]
    while todo:
        chain, lo, hi, n_lo, n_hi = todo.pop()
        if n_lo - n_hi == 1:
            found.append(_narrow(chain[0], lo, hi))
        elif n_lo > n_hi:
            mid = (lo + hi) / 2
            n, d = mid.numerator, mid.denominator
            if not _value_at(chain[0], n, d):
                found.append((mid, mid))
                chain = sturm_sequence(_quotient(chain[0], [d, -n]))
                n_lo = sign_variations(chain, lo)
                n_hi = sign_variations(chain, hi)
            n_mid = sign_variations(chain, mid)
            todo += [(chain, lo, mid, n_lo, n_mid),
                     (chain, mid, hi, n_mid, n_hi)]
    found.sort(key=lambda iv: iv[0])
    return found


# -- serialization -----------------------------------------------------------


def poly_to_line(p: RationalPoly) -> str:
    """Space-separated exact rationals, degree-descending; zero -> "0"."""
    if p.is_zero():
        return "0"
    return " ".join(str(c) for c in reversed(p.coeffs))


def poly_from_line(line: str) -> RationalPoly:
    parts = line.split()
    if not parts:
        raise FormatError("empty polynomial line")
    try:
        cs = [as_fraction(tok) for tok in parts]
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational in polynomial line: {e}") from None
    return RationalPoly(reversed(cs))
