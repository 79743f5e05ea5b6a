"""Shared helpers: seeded draws of admissible extremal-value pairs.

Also sets OPENBLAS_NUM_THREADS to 1, whatever the caller's shell says, as
a fresh CLI process does: a threaded BLAS reduction sums in another order,
so the 17-digit report lines that the tests pin would depend on the thread
count.  The variable only counts if it is set before numpy is first
imported.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

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


def lm_jacobian(problem, u):
    """The LM problem's sparse Jacobian J = [J_g; J_c] at u, stacked from its
    Gauss rows (one row per node, on the node's m consecutive unknowns) and
    its constant Codazzi block."""
    import numpy as np
    from scipy import sparse

    n = problem.m * problem.N
    Jg = sparse.csr_matrix((problem.gauss_rows(u).T.ravel(), np.arange(n),
                            np.arange(0, n + 1, problem.m)),
                           shape=(problem.N, n))
    return sparse.vstack([Jg, problem._jc], format="csr")


def lm_second_order(problem, u):
    """The LM model's second-order term S at u as a dense matrix.

    With m = 2 it is sum_k max(r_k, 0) H_k over the nodes' weighted Gauss
    residuals r_k, H_k the Hessian of r_k, read here off the Gauss rows by
    differencing: they are affine in u, so a unit step gives H_k to
    rounding.  With m = 3 the model is Gauss-Newton's, S = 0.
    """
    import numpy as np

    n = problem.m * problem.N
    S = np.zeros((n, n))
    if problem.m == 3:
        return S
    r = np.maximum(problem.residual(u)[:problem.N], 0.0)
    rows = problem.gauss_rows(u)
    node = np.arange(problem.N) * problem.m
    for b in range(problem.m):
        e = np.zeros(n)
        e[node + b] = 1.0
        H = problem.gauss_rows(u + e) - rows    # H[a, k] = H_k[a, b]
        for a in range(problem.m):
            S[node + a, node + b] = r * H[a]
    return S
