"""Curvature profiles of the singular non-CSC extremal conformal metrics.

In the local chart where the character 1-form is dz, the Gauss curvature K
depends on x alone and solves the autonomous flow

    dK/dx = mu^2(K) / 2,      mu^2(K) = -(4/3)(K - k1)(K - k2)(K + k1 + k2),

strictly increasing between the equilibria k2 < K < k1.  The metric is
g = mu^2 (dx^2 + dy^2), i.e. conformal exponent phi = ln mu.

The flow also has a closed-form inverse x(K) by partial fractions (the cusp
kind k2 = -k1/2 has a double root and picks up a 1/(K - root) term); the
fourth-order integrator is validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import admissible_kind
from .errors import FormatError, StepTooLarge
from .textio import atomic_write, format_rows, read_text

# RK4 steps one profile may take, n_neg + n_pos: 50x the 20,000 of the
# README's profile over [-10, 10] at step 1e-3
MAX_PROFILE_STEPS = 10 ** 6


@dataclass(frozen=True)
class HcmuParams:
    """Extremal curvature values, singularity kind, ambient curvature."""

    k1: float
    k2: float
    kind: str  # "conical" | "cusp"
    c: float = 0.0

    @property
    def k3(self) -> float:
        return -(self.k1 + self.k2)

    @property
    def p1(self) -> float:
        k1, k2 = self.k1, self.k2
        return (4.0 / 3.0) * (k1 * k1 + k1 * k2 + k2 * k2)

    @property
    def p0(self) -> float:
        k1, k2 = self.k1, self.k2
        return -(4.0 / 3.0) * k1 * k2 * (k1 + k2)

    # mu^2 in factored form: exact zeros at the equilibria.
    def mu_sq(self, K):
        return -(4.0 / 3.0) * (K - self.k1) * (K - self.k2) * (K - self.k3)

    def mu(self, K):
        return np.sqrt(self.mu_sq(K))

    def mu_sq_prime(self, K):
        return -4.0 * K * K + self.p1

    def obstruction(self, K, c):
        """Float evaluation of the obstruction cubic Phi(K, c).

        Phi = 2 (K-c)^2 P'' + (K-c) P' - P = -56/3 K^3 + 36 c K^2 - 16 c^2 K
        - (p1 c + p0) with P = mu^2; algebra.obstruction_poly forms it exactly.
        """
        t = K - c
        return -16.0 * K * t * t + self.mu_sq_prime(K) * t - self.mu_sq(K)


def validate_params(k1: float, k2: float, c: float = 0.0) -> HcmuParams:
    """Classify (k1, k2) as conical or cusp, or reject with the violated rule."""
    k1 = float(k1)
    k2 = float(k2)
    return HcmuParams(k1, k2, admissible_kind(k1, k2), float(c))


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Sampled solution of the curvature flow on a uniform x grid."""

    params: HcmuParams
    k0: float
    step: float
    xs: np.ndarray
    Ks: np.ndarray
    mus: np.ndarray
    phis: np.ndarray


def rk4_step(f, y, h):
    """One classical RK4 step of y' = f(stage, y) over a signed step h.

    stage is 0, 1 or 2 at the start, middle and end of the step.  y may be a
    float, a complex or an array (a batch of states advances in lockstep).
    """
    s1 = f(0, y)
    s2 = f(1, y + 0.5 * h * s1)
    s3 = f(1, y + 0.5 * h * s2)
    s4 = f(2, y + h * s3)
    return y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


def _x_lattice(x_range, step):
    """The lattice x = k step, -n_neg <= k <= n_pos, of an x range, and n_neg.

    n_neg = round(-x_min/step) and n_pos = round(x_max/step), so the lattice
    always contains x = 0, at index n_neg.  A step that is not positive, a
    range that does not contain 0, a nonzero end of it that rounds to no
    step, or n_neg + n_pos above MAX_PROFILE_STEPS raises ValueError.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x_min, x_max = float(x_range[0]), float(x_range[1])
    if not x_min <= 0 <= x_max:
        raise ValueError("x_range must contain 0, the anchor of K(0) = K0")
    # a count clamped to one past the cap is still over it, and an
    # infinite quotient (a subnormal step) becomes a number round accepts
    n_pos = round(min(x_max / step, MAX_PROFILE_STEPS + 1))
    n_neg = round(min(-x_min / step, MAX_PROFILE_STEPS + 1))
    if (x_max > 0 and n_pos == 0) or (x_min < 0 and n_neg == 0):
        raise ValueError(f"step {step} rounds a nonzero end of the x range "
                         f"[{x_min}, {x_max}] to no step")
    if n_neg + n_pos > MAX_PROFILE_STEPS:
        raise ValueError(f"step {step} takes more than {MAX_PROFILE_STEPS} "
                         f"steps over the x range [{x_min}, {x_max}]")
    return step * np.arange(-n_neg, n_pos + 1), n_neg


def solve_curvature_ode(params: HcmuParams, k0: float, x_range=(-10.0, 10.0),
                        step: float = 1e-3) -> CurvatureProfile:
    """Integrate dK/dx = mu^2/2 with K(0) = k0 by classical RK4, both ways.

    The returned grid is the lattice of ``_x_lattice``: x = k step for
    -n_neg <= k <= n_pos, with n_neg = round(-x_min/step) and
    n_pos = round(x_max/step), so it always contains x = 0; a nonzero end
    of x_range that rounds to no step, or n_neg + n_pos above
    MAX_PROFILE_STEPS, raises ValueError before the first step.  A step
    that breaks monotone growth or exits the open bracket (k2, k1) raises
    StepTooLarge.
    """
    if not params.k2 < k0 < params.k1:
        raise ValueError(f"K0 = {k0} not inside ({params.k2}, {params.k1})")
    xs, n_neg = _x_lattice(x_range, step)
    n_pos = xs.size - 1 - n_neg

    # mu_sq with K1, K2, K3 bound once; same expression and order, same bits
    k1, k2, k3 = params.k1, params.k2, params.k3
    f = lambda stage, K: 0.5 * (-(4.0 / 3.0) * (K - k1) * (K - k2) * (K - k3))
    fwd = [k0]
    for _ in range(n_pos):
        fwd.append(rk4_step(f, fwd[-1], step))
    bwd = [k0]
    for _ in range(n_neg):
        bwd.append(rk4_step(f, bwd[-1], -step))

    Ks = np.array(bwd[::-1] + fwd[1:])

    if not (np.all(Ks > params.k2) and np.all(Ks < params.k1)):
        raise StepTooLarge(
            f"step {step} drove K outside ({params.k2}, {params.k1})"
        )
    if np.any(np.diff(Ks) < 0):
        raise StepTooLarge(f"step {step} broke monotone growth of K")

    mus = params.mu(Ks)
    return CurvatureProfile(params, float(k0), float(step), xs, Ks, mus,
                            np.log(mus))


def _log_terms(params: HcmuParams, k0: float):
    """Partial-fraction data for x(K) = int_{k0}^{K} 2/mu^2.

    Returns (log_pairs, inv_pair) with x(K) = sum L_i (ln|K-r_i| - ln|k0-r_i|)
    + Cinv (1/(K-r) - 1/(k0-r)); inv_pair is None for the conical kind.
    """
    k1, k2, k3 = params.k1, params.k2, params.k3
    if params.kind == "conical":
        pairs = []
        for r, others in ((k1, (k2, k3)), (k2, (k1, k3)), (k3, (k1, k2))):
            A = 1.0 / ((r - others[0]) * (r - others[1]))
            pairs.append((r, -1.5 * A))
        return pairs, None
    # cusp: k2 == k3 is a double root of mu^2
    d = k1 - k2
    A = 1.0 / (d * d)
    pairs = [(k1, -1.5 * A), (k2, 1.5 * A)]
    # -3/2 * C * d/dK[-1/(K-k2)] term integrated: -3/2 * (-1/d) * (-1/(K-k2))
    inv_pair = (k2, -1.5 / d)
    return pairs, inv_pair


def _x_evaluator(params: HcmuParams, k0: float):
    """x(K) with x(k0) = 0 as a function of a float array K in (k2, k1).

    The anchor is checked and the terms in k0 (ln|k0 - r_i|, and 1/(k0 - r)
    for the cusp kind) are computed here, once; the function checks nothing.
    """
    if not params.k2 < k0 < params.k1:
        raise ValueError(f"anchor K0 = {k0} outside ({params.k2}, {params.k1})")
    pairs, inv_pair = _log_terms(params, k0)
    logs = [(r, L, math.log(abs(k0 - r))) for r, L in pairs]
    if inv_pair is not None:
        r_inv, C = inv_pair
        inv0 = 1.0 / (k0 - r_inv)

    def x_of(K):
        out = 0.0
        for r, L, log0 in logs:
            out = out + L * (np.log(np.abs(K - r)) - log0)
        if inv_pair is not None:
            out = out + C * (1.0 / (K - r_inv) - inv0)
        return out

    return x_of


def implicit_x_of_K(params: HcmuParams, k0: float, K):
    """Closed-form x(K) with x(k0) = 0, valid on the open interval (k2, k1)."""
    x_of = _x_evaluator(params, k0)
    arr = np.asarray(K, dtype=float)
    if np.any(arr <= params.k2) or np.any(arr >= params.k1):
        raise ValueError(f"K outside the open interval ({params.k2}, {params.k1})")
    out = x_of(arr)
    if np.isscalar(K) or arr.ndim == 0:
        return float(out)
    return out


# Order-preserving map of doubles onto int64: adjacent doubles get adjacent
# keys, so bisecting keys halves the number of doubles left in a bracket.
_MAGNITUDE = np.int64(2**63 - 1)
_SIGN = np.int64(-2**63)


def _double_key(v):
    b = np.asarray(v, dtype=float).view(np.int64)
    return np.where(b < 0, -(b & _MAGNITUDE), b)


def _key_double(k):
    return np.where(k < 0, -k | _SIGN, k).view(float)


def _mid_key(lo, hi):
    return (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor mean, no overflow


# Newton steps that start every point's search, and the half-width in keys
# of the bracket then checked around their result.
_NEWTON_STEPS = 5
_BRACKET_PAD = 16


def _newton_guess(params: HcmuParams, x_of, k0: float, t, k_ends):
    """K near the solution of x(K) = t, from Newton steps in the logit
    variable u = ln((K - k2)/(k1 - K)).

    There dx/du = (2/mu^2)(K - k2)(k1 - K)/(k1 - k2) = 1.5/((K - k3)(k1 - k2)),
    bounded at k1, and at k2 too for the conical kind.  Each step moves K by
    K(u + du) - K(u), so K keeps its own relative accuracy near 0.
    """
    k1, k2, k3 = params.k1, params.k2, params.k3
    width = k1 - k2
    k_lo, k_hi = k_ends
    # K = k0 at every point: the first step runs on that scalar, and as
    # x(k0) = 0 by construction it evaluates nothing
    K = float(k0)
    for i in range(_NEWTON_STEPS):
        gap = t - x_of(K) if i else t
        du = gap * (K - k3) * width / 1.5
        # with a = K - k2, b = k1 - K and e = exp(-|du|), the form for the
        # sign of du whose denominator adds positive terms, the minus sign
        # of the form for du >= 0 moved into its denominator
        a, b = K - k2, k1 - K
        neg_abs = -np.abs(du)
        e = np.exp(neg_abs)
        step = a * b * np.expm1(neg_abs) / np.where(du < 0, b + a * e,
                                                    -(a + b * e))
        K = np.minimum(np.maximum(K + step, k_lo), k_hi)
    return K


def _bisect_keys(x_of, t, lo, hi, g_lo, g_hi, g_mid, width):
    """Bisect the key brackets [lo, hi], with g_lo < t <= g_hi, down to two
    adjacent doubles, and return the one whose x(K) lies closer to t.

    g_mid is x(K) at the first midpoint, which the caller evaluates with
    its other points; later midpoints are evaluated here.  width, a Python
    int, bounds hi - lo from above: ceil(log2(width)) rounds bring every
    bracket down to one step, and a round on a bracket already there
    leaves it as it is.
    """
    for i in range((width - 1).bit_length()):
        mid = _mid_key(lo, hi)
        if i:
            g_mid = x_of(_key_double(mid))
        below = g_mid < t
        lo, g_lo = np.where(below, mid, lo), np.where(below, g_mid, g_lo)
        hi, g_hi = np.where(below, hi, mid), np.where(below, g_hi, g_mid)
    return _key_double(np.where(g_hi - t <= t - g_lo, hi, lo))


def curvature_at(params: HcmuParams, k0: float, x):
    """Invert the closed form: the K in (k2, k1) with x(K) = x.

    x is a scalar or an array, and the result is of the same kind.  The
    result is one of two adjacent doubles lo < hi with x(lo) < x <= x(hi),
    the one whose x(K) lies closer to x (hi on a tie); a NaN x gives NaN.
    Each point takes a few Newton steps from k0 in the logit variable
    (``_newton_guess``); the doubles 16 keys below and above the guess are
    then checked to bracket x, in one x(K) evaluation that also takes the
    bracket's midpoint, and bisecting that bracket takes 5 rounds.  When
    every point passes the check, as on a grid's x range, that is the
    whole search.  Only points whose check fails (where x(K) is flat or
    not monotone on the doubles, or Newton has not converged, as on the k2
    side of the cusp kind) make a fallback batch, bisected over all the
    doubles of (k2, k1) in at most 64 rounds.  Wherever x(K) is monotone on
    the doubles both searches end on the same pair.  Every point is
    searched on its own, so an array call equals the scalar calls bit for
    bit.  Beyond double resolution the result saturates at the nearest
    representable K inside the interval.
    """
    x_of = _x_evaluator(params, k0)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    k_ends = np.array([np.nextafter(params.k2, params.k1),
                       np.nextafter(params.k1, params.k2)])
    key_ends = _double_key(k_ends)
    # the ends, and the first midpoint of the full-interval bisection
    key_mid = _mid_key(*key_ends)
    x_lo, x_hi, x_mid = x_of(_key_double(np.append(key_ends, key_mid)))
    K = np.where(xs <= x_lo, k_ends[0], np.where(xs >= x_hi, k_ends[1], np.nan))
    inside = (xs > x_lo) & (xs < x_hi)
    t = xs[inside]

    # the guess lies inside k_ends, so each end of its bracket has one bound
    key = _double_key(_newton_guess(params, x_of, k0, t, k_ends))
    lo = np.maximum(key - _BRACKET_PAD, key_ends[0])
    hi = np.minimum(key + _BRACKET_PAD, key_ends[1])
    mid = _mid_key(lo, hi)
    g_lo, g_hi, g_mid = np.split(
        x_of(_key_double(np.concatenate([lo, hi, mid]))), 3)
    near = (g_lo < t) & (t <= g_hi)
    if near.all():
        K[inside] = _bisect_keys(x_of, t, lo, hi, g_lo, g_hi, g_mid,
                                 2 * _BRACKET_PAD)
    else:
        far = ~near
        n_far = np.count_nonzero(far)
        found = np.empty(t.shape)
        found[near] = _bisect_keys(x_of, t[near], lo[near], hi[near],
                                   g_lo[near], g_hi[near], g_mid[near],
                                   2 * _BRACKET_PAD)
        # the key width in Python ints: across 0 it can overflow int64
        found[far] = _bisect_keys(x_of, t[far], np.full(n_far, key_ends[0]),
                                  np.full(n_far, key_ends[1]),
                                  np.full(n_far, x_lo), np.full(n_far, x_hi),
                                  np.full(n_far, x_mid),
                                  int(key_ends[1]) - int(key_ends[0]))
        K[inside] = found
    if np.ndim(x) == 0:
        return float(K[0])
    return K


@dataclass(frozen=True)
class AgreementReport:
    """ODE vs closed-form deviation, restricted to nodes where the closed
    form is itself trustworthy at the requested tolerance."""

    max_dev_masked: float
    max_dev_all: float
    masked_nodes: int
    total_nodes: int


def closed_form_agreement(profile: CurvatureProfile, tol: float = 1e-8,
                          safety: float = 32.0) -> AgreementReport:
    """Compare x_implicit(K(x)) against x over the profile.

    Near the equilibria the inverse map amplifies one ulp of K by
    |dx/dK| = 2/mu^2, which eventually exceeds any tolerance no matter how
    the profile was computed; the masked deviation therefore only counts
    nodes where that amplification stays below tol/safety, which is where
    the closed form is a valid oracle at tolerance tol.
    """
    dev = np.abs(
        implicit_x_of_K(profile.params, profile.k0, profile.Ks) - profile.xs
    )
    cond = np.abs(2.0 / profile.params.mu_sq(profile.Ks)) * np.spacing(
        np.abs(profile.Ks)
    )
    mask = cond < tol / safety
    if not np.any(mask):
        raise ValueError("no node passes the oracle conditioning gate")
    return AgreementReport(float(dev[mask].max()), float(dev.max()),
                           int(mask.sum()), int(dev.size))


def conformal_curvature_residual(phi: np.ndarray, K: np.ndarray,
                                 hx: float, hy: float) -> np.ndarray:
    """Interior residual K + e^{-2 phi} Lap_h(phi) of the 5-point stencil.

    For a conformal metric e^{2 phi}|dz|^2 the Gauss curvature is
    -e^{-2 phi} (phi_xx + phi_yy), so this vanishes at O(h^2) when K is
    really the curvature of the supplied exponent.
    """
    if phi.shape != K.shape:
        raise ValueError("phi and K grids must have identical shape")
    if phi.shape[0] < 5 or phi.shape[1] < 5:
        raise ValueError("grid too small: need >= 3 interior nodes per axis")
    lap = (phi[2:, 1:-1] - 2.0 * phi[1:-1, 1:-1] + phi[:-2, 1:-1]) / (hx * hx)
    lap += (phi[1:-1, 2:] - 2.0 * phi[1:-1, 1:-1] + phi[1:-1, :-2]) / (hy * hy)
    return K[1:-1, 1:-1] + np.exp(-2.0 * phi[1:-1, 1:-1]) * lap


@dataclass(frozen=True)
class CurvatureCheck:
    h: float
    nx: int
    ny: int
    max_residual: float


def curvature_residual(profile: CurvatureProfile, h: float,
                       ny: int = 8) -> CurvatureCheck:
    """Self-consistency of the profile under the discrete curvature operator.

    The profile is subsampled to spacing h (h must be an integer multiple of
    the profile step) and extended constantly in y, where the stencil
    contributes exactly zero.
    """
    stride = h / profile.step
    if abs(stride - round(stride)) > 1e-9 * max(1.0, stride) or round(stride) < 1:
        raise ValueError(f"h = {h} is not a multiple of the profile step")
    stride = int(round(stride))
    phis = profile.phis[::stride]
    Ks = profile.Ks[::stride]
    if phis.size < 5 or ny < 5:
        raise ValueError("grid too small: need >= 3 interior nodes per axis")
    phi2 = np.tile(phis[:, None], (1, ny))
    K2 = np.tile(Ks[:, None], (1, ny))
    res = conformal_curvature_residual(phi2, K2, h, h)
    return CurvatureCheck(h, phis.size, ny, float(np.max(np.abs(res))))


# -- CSV serialization --------------------------------------------------------

_PROFILE_HEADER = "x,K,mu,phi"


class ProfileTable(NamedTuple):
    xs: np.ndarray
    Ks: np.ndarray
    mus: np.ndarray
    phis: np.ndarray


def write_profile_csv(profile: CurvatureProfile, path):
    table = np.column_stack([profile.xs, profile.Ks, profile.mus,
                             profile.phis])
    with atomic_write(path) as fh:
        fh.write(_PROFILE_HEADER + "\n")
        fh.write(format_rows("%.17g,%.17g,%.17g,%.17g\n", table))


def read_profile_csv(path) -> ProfileTable:
    """The four columns of a profile CSV, read line by line; FormatError
    names the first bad line."""
    lines = read_text(path).split("\n")
    if lines[0].strip() != _PROFILE_HEADER:
        raise FormatError(f"missing profile header {_PROFILE_HEADER!r}", 1)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != 4:
            raise FormatError(f"expected 4 columns, got {len(row)}", ln)
        try:
            rows.append(list(map(float, row)))
        except ValueError:
            raise FormatError(f"bad float in {line!r}", ln) from None
    table = np.array(rows, float).reshape(len(rows), 4)
    # one contiguous array per column
    return ProfileTable(*table.T.copy())
