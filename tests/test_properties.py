"""Property tests: the K(x) oracle, the admissibility rule, polynomial
division and gcd, Sturm counts and the grid header codec."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcmu_lab.algebra import CubicData
from hcmu_lab.errors import InadmissibleParams
from hcmu_lab.profile import curvature_at, implicit_x_of_K, validate_params
from hcmu_lab.ratpoly import RationalPoly, count_roots_between, isolate_roots, poly_gcd
from hcmu_lab.textio import grid_header, parse_grid_header

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
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@PROPERTY
@given(polys, polys, polys)
def test_gcd_is_monic_and_divides_both(a, b, c):
    a, b = a * c, b * c
    g = poly_gcd(a, b)
    if not (a or b):
        assert g.is_zero()
        return
    assert g.leading == 1
    assert not a % g and not b % g
    # greatest: the common factor c divides it
    assert not g % c


@PROPERTY
@given(st.lists(st.tuples(fractions, st.integers(1, 3)), min_size=1,
                max_size=5, unique_by=lambda rm: rm[0]),
       fractions.filter(lambda v: v != 0), fractions, fractions)
def test_sturm_count_matches_linear_factors(roots, lead, a, b):
    assume(a < b)
    p = RationalPoly.constant(lead)
    for r, mult in roots:
        for _ in range(mult):
            p = p * RationalPoly((-r, 1))
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
