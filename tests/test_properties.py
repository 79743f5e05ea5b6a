"""Property tests: the K(x) oracle, the admissibility rule, polynomial
division and gcd, Sturm counts, the grid header codec, the closed forms
that check the diagonal family and the minimal-ansatz transport, the RK4
propagators of the linear marches, the bound on a damped step's predicted
decrease and the LM gradient's summation order."""

import cmath
import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcmu_lab.algebra import CubicData
from hcmu_lab.errors import InadmissibleParams
from hcmu_lab import profile
from hcmu_lab.fields import (GridDomain, TraceConstraint,
                             integrate_minimal_ansatz, transport_ansatz)
from hcmu_lab.optimize import _BandedNormal, _damped_step, _Problem
from hcmu_lab.profile import (curvature_at, implicit_x_of_K, rk4_step,
                              solve_curvature_ode, validate_params)
from hcmu_lab.realize import (_x_propagators, _y_propagators,
                              solve_codazzi_family)
from hcmu_lab.ratpoly import RationalPoly, count_roots_between, isolate_roots
from hcmu_lab.textio import grid_header, parse_grid_header

from conftest import lm_jacobian
from polyarith import add, divide, from_roots, mul

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def profiles(draw):
    """Admissible (params, k0): conical pairs and the exact cusp pair."""
    k1 = draw(st.floats(0.25, 8.0))
    if draw(st.booleans()):
        k2 = -0.5 * k1
    else:
        k2 = -0.5 * k1 + 1.5 * k1 * draw(st.floats(0.02, 0.98))
    params = validate_params(k1, k2)
    k0 = params.k2 + (params.k1 - params.k2) * draw(st.floats(0.05, 0.95))
    return params, k0


xs_any = st.floats(-60.0, 60.0, allow_nan=False)


@PROPERTY
@given(profiles(), st.lists(xs_any, min_size=1, max_size=40))
def test_oracle_array_call_equals_scalar_calls(prof, xs):
    params, k0 = prof
    K = curvature_at(params, k0, np.array(xs))
    scalar = [curvature_at(params, k0, x) for x in xs]
    assert all(isinstance(v, float) for v in scalar)
    assert K.shape == (len(xs),)
    assert K.tobytes() == np.array(scalar).tobytes()


@PROPERTY
@given(profiles(), xs_any)
def test_oracle_inverts_the_closed_form_where_conditioned(prof, x):
    params, k0 = prof
    K = curvature_at(params, k0, x)
    # one ulp of K moves x(K) by |dx/dK| ulp = 2 ulp / mu^2
    assume(2.0 / params.mu_sq(K) * np.spacing(abs(K)) < 1e-12)
    assert abs(implicit_x_of_K(params, k0, K) - x) <= 1e-10 * max(1.0, abs(x))


@PROPERTY
@given(profiles(), st.floats(0.0, 1e6), st.booleans())
def test_oracle_saturates_beyond_double_resolution(prof, beyond, upper):
    params, k0 = prof
    k_lo = np.nextafter(params.k2, params.k1)
    k_hi = np.nextafter(params.k1, params.k2)
    if upper:
        x = implicit_x_of_K(params, k0, k_hi) + beyond
        assert curvature_at(params, k0, x) == k_hi
    else:
        x = implicit_x_of_K(params, k0, k_lo) - beyond
        assert curvature_at(params, k0, x) == k_lo
    ends = curvature_at(params, k0, np.array([-np.inf, np.inf]))
    assert list(ends) == [k_lo, k_hi]


def _key(v: float) -> int:
    """Order-preserving integer key of a double: adjacent doubles, adjacent
    keys."""
    b = struct.unpack("<q", struct.pack("<d", v))[0]
    return b if b >= 0 else -(b & (2**63 - 1))


def _double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -k - 2**63))[0]


def bisect_pair(xf, x, lo, hi, g_lo, g_hi):
    """Bisect the keys [lo, hi], with g_lo < x <= g_hi, down to two adjacent
    doubles, then take the closer in x (hi on a tie)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = xf(_double(mid))
        if g_mid < x:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return _double(hi) if g_hi - x <= x - g_lo else _double(lo)


def full_bisection(params, k0, x):
    """The oracle's search over all the doubles of (k2, k1), one point at a
    time: bisect their keys down to two adjacent doubles with
    x(lo) < x <= x(hi), then take the closer in x (hi on a tie)."""
    xf = lambda K: implicit_x_of_K(params, k0, K)
    lo = _key(np.nextafter(params.k2, params.k1))
    hi = _key(np.nextafter(params.k1, params.k2))
    return bisect_pair(xf, x, lo, hi, xf(_double(lo)), xf(_double(hi)))


def reference_search(params, k0, x):
    """The search that curvature_at documents, for one point: (K, path),
    path "end", "near" or "far".

    x(K) and the exponentials are evaluated on one-element arrays.  5
    Newton steps from k0 in u = ln((K - k2)/(k1 - K)), where
    dx/du = 1.5/((K - k3)(k1 - k2)), each clamped to the doubles inside
    (k2, k1); the doubles 16 keys either side of the result, if x(K)
    brackets x there, are bisected ("near"), and otherwise all the doubles
    of (k2, k1) are ("far").
    """
    one = lambda f, v: f(np.array([v]))[0]
    xf = lambda K: one(lambda a: implicit_x_of_K(params, k0, a), K)
    k1, k2, k3 = params.k1, params.k2, params.k3
    k_lo, k_hi = np.nextafter(k2, k1), np.nextafter(k1, k2)
    if math.isnan(x):
        return math.nan, "end"
    if x <= xf(k_lo):
        return k_lo, "end"
    if x >= xf(k_hi):
        return k_hi, "end"
    K = k0
    for i in range(5):
        gap = x - xf(K) if i else x
        du = gap * (K - k3) * (k1 - k2) / 1.5
        a, b = K - k2, k1 - K
        e, em = one(np.exp, -abs(du)), one(np.expm1, -abs(du))
        if du < 0:
            step = a * b * em / (b + a * e)
        else:
            step = -a * b * em / (a + b * e)
        K = min(max(K + step, k_lo), k_hi)
    key = _key(K)
    lo, hi = max(key - 16, _key(k_lo)), min(key + 16, _key(k_hi))
    g_lo, g_hi = xf(_double(lo)), xf(_double(hi))
    if g_lo < x <= g_hi:
        return bisect_pair(xf, x, lo, hi, g_lo, g_hi), "near"
    return full_bisection(params, k0, x), "far"


def picked_pair(params, k0, x, K):
    """The adjacent doubles lo < hi with x(lo) < x <= x(hi) of which K is
    the closer in x (hi on a tie), or None if K is no such pick."""
    xf = lambda v: implicit_x_of_K(params, k0, v)
    below, above = np.nextafter(K, -np.inf), np.nextafter(K, np.inf)
    for lo, hi in ((below, K), (K, above)):
        if params.k2 < lo and hi < params.k1 and xf(lo) < x <= xf(hi):
            if (hi if xf(hi) - x <= x - xf(lo) else lo) == K:
                return lo, hi
    return None


def assert_oracle_contract(params, k0, x):
    K = curvature_at(params, k0, x)
    pair = picked_pair(params, k0, x, K)
    assert pair is not None
    ref = full_bisection(params, k0, x)
    if K != ref:
        # Both answers end on a bracketing pair, so x(K) falls somewhere
        # between the two pairs: the answers may differ only where x(K) is
        # not monotone on the doubles.
        (_, hi1), (lo2, _) = sorted([pair, picked_pair(params, k0, x, ref)])
        assert hi1 <= lo2
        assert implicit_x_of_K(params, k0, hi1) > implicit_x_of_K(params, k0, lo2)


@PROPERTY
@given(profiles(), st.floats(0.0, 1.0),
       st.sampled_from([0.0, 1e-15, -1e-12, 1e-6, -1e-3]))
def test_oracle_picks_an_adjacent_pair_like_the_full_bisection(prof, frac, dx):
    params, k0 = prof
    K_at = params.k2 + (params.k1 - params.k2) * frac
    assume(params.k2 < K_at < params.k1)
    x = implicit_x_of_K(params, k0, K_at) + dx
    x_lo, x_hi = implicit_x_of_K(params, k0, np.array([
        np.nextafter(params.k2, params.k1), np.nextafter(params.k1, params.k2)]))
    assume(x_lo < x < x_hi)  # the saturation property covers the rest
    assert_oracle_contract(params, k0, x)


def test_oracle_falls_back_to_the_full_bisection(monkeypatch):
    # On the k2 side of the cusp kind, x(K) ~ -1/(K - k2), and Newton in the
    # logit variable has not converged after its fixed steps at x = -30.
    params = validate_params(2.0, -1.0)
    batches = []
    bisect = profile._bisect_keys

    def spy(x_of, t, *args):
        batches.append(t.size)
        return bisect(x_of, t, *args)

    monkeypatch.setattr(profile, "_bisect_keys", spy)
    K = curvature_at(params, 0.5, np.array([-30.0, 0.25]))
    assert batches == [1, 1]  # one point near its Newton guess, one far
    for x in (-30.0, 0.25):
        assert_oracle_contract(params, 0.5, x)
    assert K[0] == full_bisection(params, 0.5, -30.0)


def test_an_all_near_call_bisects_one_batch(monkeypatch):
    # no empty fallback batch: the 81 points of a holonomy grid's half-step
    # lattice are all near their Newton guesses, and bisected as they are
    batches = []
    bisect = profile._bisect_keys

    def spy(x_of, t, *args):
        batches.append(t.size)
        return bisect(x_of, t, *args)

    monkeypatch.setattr(profile, "_bisect_keys", spy)
    for params, k0 in ((validate_params(2.0, 1.0), 1.5),
                       (validate_params(2.0, -1.0), 0.5)):
        batches.clear()
        curvature_at(params, k0, -0.02 + 5e-4 * np.arange(81))
        assert batches == [81]


def test_the_fallback_bisects_a_key_width_beyond_int64():
    # (2^40, -2^39) spans more than 2^63 keys: the round count of the full
    # bisection, 64, comes from a key width that int64 cannot hold
    params = validate_params(2.0 ** 40, -2.0 ** 39)
    ends = [_key(np.nextafter(params.k2, params.k1)),
            _key(np.nextafter(params.k1, params.k2))]
    assert ends[1] - ends[0] > 2 ** 63
    K_at = params.k2 + (params.k1 - params.k2) * np.geomspace(1e-15, 1e-3, 200)
    x = implicit_x_of_K(params, 0.0, K_at)
    ref = [reference_search(params, 0.0, v) for v in x]
    assert sum(path == "far" for _, path in ref) > 100
    assert (curvature_at(params, 0.0, x).tobytes()
            == np.array([K for K, _ in ref]).tobytes())


@PROPERTY
@given(profiles(), st.lists(xs_any, min_size=1, max_size=20))
def test_oracle_is_the_documented_search_bit_for_bit(prof, xs):
    params, k0 = prof
    K = curvature_at(params, k0, np.array(xs))
    ref = [reference_search(params, k0, x)[0] for x in xs]
    assert K.tobytes() == np.array(ref).tobytes()


@PROPERTY
@given(st.floats(0.25, 8.0), st.floats(0.002, 0.05), st.floats(0.05, 0.95),
       st.floats(0.0, 1.0))
def test_oracle_is_the_documented_search_where_x_of_K_is_not_monotone(
        k1, near_cusp, at_k0, phase):
    # conical pairs near the cusp pair: the partial fractions of x(K) then
    # have large weights that cancel, x(K) is not monotone on the doubles,
    # and the pair the search ends on depends on every midpoint it takes;
    # x sweeps values that x(K) takes there
    params = validate_params(k1, -0.5 * k1 + 1.5 * k1 * near_cusp)
    k0 = params.k2 + (params.k1 - params.k2) * at_k0
    K_at = params.k2 + (params.k1 - params.k2) * (np.arange(16) + phase) / 16
    x = implicit_x_of_K(params, k0,
                        K_at[(params.k2 < K_at) & (K_at < params.k1)])
    ref = [reference_search(params, k0, v)[0] for v in x]
    assert curvature_at(params, k0, x).tobytes() == np.array(ref).tobytes()


@PROPERTY
@given(st.floats(-60.0, -0.5), st.floats(-0.5, 0.5))
def test_oracle_is_the_documented_search_on_the_cusp_fallback(x_far, x):
    # (2, -1) anchored at 0.5: every x below -0.5 takes the full bisection
    params = validate_params(2.0, -1.0)
    K = curvature_at(params, 0.5, np.array([x_far, x]))
    (K_far, path), (K_near, _) = (reference_search(params, 0.5, v)
                                  for v in (x_far, x))
    assert path == "far"
    assert K.tobytes() == np.array([K_far, K_near]).tobytes()


def test_an_all_near_call_builds_x_of_K_once_and_evaluates_it_ten_times(
        monkeypatch):
    # the ends (with the full bisection's first midpoint), 4 Newton steps,
    # the bracket with its midpoint, and 4 more rounds of bisection
    built, sizes = [], []
    log_terms, evaluator = profile._log_terms, profile._x_evaluator

    def counting_terms(*args):
        built.append(args)
        return log_terms(*args)

    def counting_evaluator(params, k0):
        x_of = evaluator(params, k0)

        def counted(K):
            sizes.append(np.size(K))
            return x_of(K)
        return counted

    monkeypatch.setattr(profile, "_log_terms", counting_terms)
    monkeypatch.setattr(profile, "_x_evaluator", counting_evaluator)
    for params, k0 in ((validate_params(2.0, 1.0), 1.5),
                       (validate_params(2.0, -1.0), 0.5)):
        built.clear()
        sizes.clear()
        curvature_at(params, k0, -0.02 + 5e-4 * np.arange(81))
        assert len(built) == 1
        assert sizes == [3] + [81] * 4 + [3 * 81] + [81] * 4


dyadics = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-64, 64),
                    st.integers(0, 6))


@PROPERTY
@given(dyadics, dyadics, st.booleans())
def test_admissibility_agrees_on_floats_and_fractions(k1, k2, cusp):
    # dyadic values are exact doubles, so both paths decide the same pair
    if cusp:
        k2 = -k1 / 2

    def outcome(make):
        try:
            return "accepted", make().kind
        except InadmissibleParams as err:
            return "rejected", err.violated

    exact = outcome(lambda: CubicData.from_extremes(k1, k2))
    assert outcome(lambda: validate_params(float(k1), float(k2))) == exact


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


polys = st.lists(fractions, max_size=6).map(RationalPoly)


@PROPERTY
@given(polys, polys.filter(bool))
def test_divmod_reconstructs_the_dividend(a, b):
    q, r = divide(a, b)
    assert add(mul(q, b), r) == a
    assert r.degree < b.degree


@PROPERTY
@given(st.lists(st.tuples(fractions, st.integers(1, 3)), min_size=1,
                max_size=5, unique_by=lambda rm: rm[0]),
       fractions.filter(lambda v: v != 0), fractions, fractions)
def test_sturm_count_matches_linear_factors(roots, lead, a, b):
    assume(a < b)
    p = from_roots([r for r, mult in roots for _ in range(mult)], lead)
    inside = sorted(r for r, _ in roots if a < r < b)
    assert count_roots_between(p, a, b) == len(inside)
    boxes = isolate_roots(p, a, b)
    assert len(boxes) == len(inside)
    for (lo, hi), r in zip(boxes, inside):
        assert lo <= r <= hi


@PROPERTY
@given(st.integers(0, 10**6), st.integers(0, 10**6),
       *(st.floats(allow_nan=False, allow_infinity=False) for _ in range(4)))
def test_grid_header_roundtrip(nx, ny, hx, hy, x0, y0):
    meta = {}
    for line in grid_header(nx, ny, hx, hy, x0, y0).splitlines():
        key, value = (t.strip() for t in line[1:].split("=", 1))
        meta.update(parse_grid_header(key, value))
    assert meta == dict(nx=nx, ny=ny, hx=hx, hy=hy, x0=x0, y0=y0)
    assert parse_grid_header("c", "0") is None


def march_k2(params, c, k0, k2, x_end, n):
    """k2 at x_end by n RK4 steps of the Codazzi equation
    dk2/dx = (P'/4)((K - c)/k2 - k2) from k2 at x = 0, K from the oracle at
    every stage."""
    h = x_end / n
    K = curvature_at(params, k0, 0.5 * h * np.arange(2 * n + 1))
    K[0] = k0
    rate = 0.25 * params.mu_sq_prime(K)
    for i in range(n):
        k = 2 * i
        k2 = rk4_step(lambda stage, v: rate[k + stage] * ((K[k + stage] - c) / v - v),
                      k2, h)
    return k2


@PROPERTY
@given(profiles(), st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.booleans(),
       st.booleans())
def test_family_k2_is_the_limit_of_rk4_at_fourth_order(prof, c_at, scale,
                                                       negative, backward):
    params, k0 = prof
    c = k0 + c_at * (params.k1 - params.k2)
    k2_init = math.copysign(scale * math.sqrt(abs(k0 - c) + params.k1 - params.k2),
                            -1.0 if negative else 1.0)
    span = 0.5 / params.k1 ** 2  # the x scale of both rates is 1/K1^2
    sampled = solve_curvature_ode(params, k0, (-span, span), span / 64)
    fam = solve_codazzi_family(sampled, c, k2_init)
    end = 0 if backward else -1
    assume(fam.xs[end] == sampled.xs[end])
    closed = fam.k2s[end]
    e_h, e_h2 = (abs(march_k2(params, c, k0, k2_init, fam.xs[end], n) - closed)
                 for n in (32, 64))
    # where the march's error falls to about 1e-12 |k2|, rounding starts to
    # show in the ratio
    assert e_h <= 1e-12 * abs(closed) or 12.0 < e_h / e_h2 < 20.0


@st.composite
def ansatz_grids(draw):
    """A grid under an admissible profile, c > K1 and a nonzero h0; the
    spacing is at most 0.02 on the x scale 1/K1^2."""
    params, k0 = draw(profiles())
    scale = params.k1 ** 2
    c = params.k1 + draw(st.floats(0.05, 4.0)) * (params.k1 - params.k2)
    h = draw(st.floats(0.002, 0.02)) / scale
    origin = (draw(st.floats(-1.0, 1.0)) / scale, 0.0)
    grid = GridDomain.create(params, k0, draw(st.integers(8, 40)), 8, h, h,
                             origin)
    h0 = complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)))
    return grid, c, h0


def ansatz_closed_form(grid, c):
    """|h| relative to column 0, from h_x = alpha h integrated in K, and the
    y rate beta of h_y = i beta h, per column."""
    K, P = grid.K, grid.params.mu_sq(grid.K)
    modulus = np.sqrt(P * (c - K) / (P[0] * (c - K[0])))
    beta = 0.5 * grid.params.mu_sq_prime(K) + P / (4.0 * (K - c))
    return modulus, beta


EPS = np.finfo(float).eps

# The transports read h off the same closed form, so they differ from it by
# a few roundings: of m and its ratios, the rotations and the products.  On
# 30,000 random draws of each test below the worst was 2.8 eps.
ANSATZ_TOL = 8.0 * EPS


@PROPERTY
@given(ansatz_grids())
def test_minimal_ansatz_matches_its_closed_form(case):
    grid, c, h0 = case
    modulus, beta = ansatz_closed_form(grid, c)
    y = grid.hy * np.arange(grid.ny)
    exact = h0 * modulus[:, None] * np.exp(1j * beta[:, None] * y)
    h = integrate_minimal_ansatz(grid, c, h0).h
    assert np.max(np.abs(h - exact) / np.abs(exact)) <= ANSATZ_TOL


@PROPERTY
@given(ansatz_grids(), st.data())
def test_ansatz_transport_around_a_rectangle_matches_its_closed_form(case,
                                                                    data):
    grid, c, h0 = case
    i0 = data.draw(st.integers(0, grid.nx - 3))
    i1 = data.draw(st.integers(i0 + 2, grid.nx - 1))
    j0 = data.draw(st.integers(0, grid.ny - 3))
    j1 = data.draw(st.integers(j0 + 2, grid.ny - 1))
    modulus, beta = ansatz_closed_form(grid, c)
    ratio = modulus[i1] / modulus[i0]
    dy = (j1 - j0) * grid.hy
    # the y legs are exact rotations, so the x legs cancel around the loop
    turn = cmath.exp(1j * beta[i1] * dy)
    corners = [(i0, j0), (i1, j0), (i1, j1), (i0, j1), (i0, j0)]
    expect = [h0 * ratio, h0 * ratio * turn, h0 * turn,
              h0 * cmath.exp(1j * dy * (beta[i1] - beta[i0]))]
    for n, exact in enumerate(expect, start=2):
        h = transport_ansatz(grid, c, h0, corners[:n])
        assert abs(h - exact) <= ANSATZ_TOL * abs(exact)


def sequential_march(Ax, S, i0, i1, h):
    """The march the propagators replace: one rk4_step per cell of
    S' = Ax S from column i0 to column i1, column i at half-step index 2 i."""
    step = 1 if i1 > i0 else -1
    for i in range(i0, i1, step):
        S = rk4_step(lambda stage, T: Ax[2 * i + step * stage] @ T, S,
                     step * h)
    return S


def complex_uniform(rng, shape):
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def coefficient_norms(table):
    """Spectral norms of a stack of 4x4 coefficients."""
    return np.linalg.norm(table, 2, axis=(-2, -1))


@PROPERTY
@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11),
       st.floats(1e-3, 0.25), st.integers(0, 2 ** 32 - 1))
@example(12, 9, 2, 0.2, 0)   # backward
@example(12, 4, 4, 0.2, 0)   # zero length
def test_x_propagators_march_a_leg_like_sequential_rk4(nx, i0, i1, hx, seed):
    # a random half-step table of complex 4x4 coefficients, and a leg in
    # either direction, or of zero length
    i0, i1 = i0 % nx, i1 % nx
    n = abs(i1 - i0)
    rng = np.random.default_rng(seed)
    Ax = complex_uniform(rng, (2 * nx - 1, 4, 4))
    y0 = complex_uniform(rng, (4, 3))
    props = _x_propagators(Ax, i0, i1, hx)
    assert props.shape == (n, 4, 4)
    y = y0
    for P in props:
        y = P @ y
    ref = sequential_march(Ax, y0, i0, i1, hx)
    # each step's rounding is a few ulps of what the state may grow to
    norms = coefficient_norms(Ax)
    lo = min(i0, i1)
    growth = math.exp(hx * sum(norms[2 * i:2 * i + 3].max()
                               for i in range(lo, lo + n)))
    tol = 4.0 * n * EPS * growth * np.linalg.norm(y0)
    assert np.all(np.abs(y - ref) <= tol)


@PROPERTY
@given(st.integers(1, 5), st.integers(0, 8), st.floats(-0.25, 0.25),
       st.integers(0, 2 ** 32 - 1))
def test_a_y_propagator_applied_n_times_is_n_rk4_steps(cols, n, hy, seed):
    rng = np.random.default_rng(seed)
    Ay = complex_uniform(rng, (cols, 4, 4))
    S0 = complex_uniform(rng, (cols, 4, 3))
    P = _y_propagators(Ay, hy)
    assert P.shape == (cols, 4, 4)
    S = ref = S0
    for _ in range(n):
        S = P @ S
        ref = rk4_step(lambda stage, T: Ay @ T, ref, hy)
    growth = np.exp(abs(hy) * n * coefficient_norms(Ay))
    tol = 4.0 * n * EPS * growth * np.linalg.norm(S0, axis=(-2, -1))
    assert np.all(np.abs(S - ref) <= tol[:, None, None])


@PROPERTY
@given(profiles(), st.integers(8, 11), st.integers(8, 11),
       st.sampled_from(["none", "minimal", "cmc:0.5"]), st.floats(-5.0, -1.0),
       st.integers(0, 2**16), st.floats(-10.0, 6.0))
def test_a_damped_step_predicts_at_most_twice_g_squared_over_lam(
        prof, nx, ny, constraint, log_h, seed, log_lam):
    # with A = J^T J + S, S the clipped second-order term (positive
    # semidefinite; 0 with m = 3), and d = -(A + lam I)^-1 g, the model's
    # decrease d . (lam d - g) = d^T (A + 2 lam I) d <= 2 |g|^2 / lam, tight
    # as lam / |A| grows: the bound on which the LM declines to factor a
    # trial.  The slack is rounding: n eps for each of the two n-term dot
    # products, pred's and |g|^2's, and (kd + 2) eps <= n eps for the band
    # Cholesky's backward error where lam dominates A, the one regime where
    # the bound is tight.  With c = K1 above every K of the grid, a Gauss
    # residual K - c - det h can take either sign, so the clip acts.
    params, k0 = prof
    h = 10.0 ** log_h / params.k1 ** 2
    grid = GridDomain.create(params, k0, nx, ny, h, h, (-nx * h / 2, 0.0))
    problem = _Problem(grid, params.k1, TraceConstraint.parse(constraint))
    u = problem.random_init(seed)
    rows = problem.gauss_rows(u)
    r = problem.residual(u)
    g = problem.gradient(rows, r)
    lam = 10.0 ** log_lam
    d = _damped_step(_BandedNormal(problem), g, lam, rows,
                     problem.second_order(r))
    pred = float(d @ (lam * d - g))
    slack = 3 * g.size * np.finfo(float).eps
    assert pred <= 2.0 * float(g @ g) / lam * (1.0 + slack)


@PROPERTY
@given(profiles(), st.integers(8, 13), st.integers(8, 13),
       st.sampled_from(["none", "minimal", "cmc:0.5"]), st.floats(-5.0, -1.0),
       st.integers(0, 2**16), st.floats(-2.0, 2.0))
def test_the_lm_gradient_is_the_sparse_product_bit_for_bit(
        prof, nx, ny, constraint, log_h, seed, c):
    # one bincount over the Gauss entries and then J_c's in CSR order sums
    # each component in the order of the sparse product J^T r
    params, k0 = prof
    h = 10.0 ** log_h / params.k1 ** 2
    grid = GridDomain.create(params, k0, nx, ny, h, h, (-nx * h / 2, 0.0))
    problem = _Problem(grid, c, TraceConstraint.parse(constraint))
    u = problem.random_init(seed)
    r = problem.residual(u)
    g = problem.gradient(problem.gauss_rows(u), r)
    assert g.tobytes() == (lm_jacobian(problem, u).T @ r).tobytes()
