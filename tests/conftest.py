"""Shared helpers: seeded draws of admissible extremal-value pairs.

Also sets OPENBLAS_NUM_THREADS to 1 unless it is set already: the LM band
Cholesky makes many small BLAS calls, which a second thread slows down, and
the variable only counts if it is set before numpy is first imported.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402


def random_admissible_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Rational (k1, k2) with k1 > 0 and k1 > k2 > -k1/2 strictly."""
    k1 = Fraction(rng.randint(1, 48), rng.randint(1, 12))
    # k2 = -k1/2 + t * (3 k1 / 2) with t strictly inside (0, 1)
    t = Fraction(rng.randint(1, 199), 200)
    k2 = -k1 / 2 + t * (3 * k1) / 2
    return k1, k2


def random_rational(rng: random.Random, lo: int = -50, hi: int = 50,
                    den: int = 10) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
