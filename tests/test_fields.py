import numpy as np
import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hcmu_lab.algebra import CubicData, obstruction_poly
from hcmu_lab.errors import FormatError, PathLeavesDomain
from hcmu_lab.fields import (
    GridDomain,
    ShapeField,
    TraceConstraint,
    codazzi_residual,
    gauss_residual,
    holonomy_defect,
    integrate_minimal_ansatz,
    read_field_csv,
    transport_ansatz,
    write_field_csv,
)
from hcmu_lab.profile import solve_curvature_ode, validate_params

PARAMS = validate_params(2, 1)
PARAMS3 = validate_params(2, 1, c=3.0)


def small_grid(n=8, h=0.02, c_params=PARAMS):
    return GridDomain.create(c_params, 1.5, n, n, h, h,
                             origin=(-0.5 * (n - 1) * h, 0.0))


def test_grid_requires_minimum_size():
    with pytest.raises(ValueError):
        GridDomain.create(PARAMS, 1.5, 4, 8, 0.1, 0.1)


def test_grid_rejects_a_non_finite_origin():
    for origin in ((np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="origin must be finite"):
            GridDomain.create(PARAMS, 1.5, 8, 8, 0.1, 0.1, origin=origin)


def test_grid_background_matches_profile():
    prof = solve_curvature_ode(PARAMS, 1.5, (-1, 1), 1e-3)
    grid = GridDomain.create(prof.params, prof.k0, 11, 8, 0.1, 0.1,
                             origin=(-0.5, 0.0))
    idx = np.rint((grid.xs - prof.xs[0]) / prof.step).astype(int)
    assert np.max(np.abs(grid.K - prof.Ks[idx])) < 1e-10


def test_constraint_parsing():
    assert TraceConstraint.parse("none").kind == "none"
    assert TraceConstraint.parse("minimal").trace_target() == 0.0
    cm = TraceConstraint.parse("cmc:0.5")
    assert cm.kind == "cmc" and cm.trace_target() == 1.0
    with pytest.raises(ValueError):
        TraceConstraint.parse("weird")
    for text in ("cmc:nan", "cmc:inf", "cmc:-inf", "cmc:1e400"):
        with pytest.raises(ValueError, match="finite"):
            TraceConstraint.parse(text)


def test_constraint_parses_exact_rationals():
    assert TraceConstraint.parse("cmc:1/2") == TraceConstraint.parse("cmc:0.5")
    assert TraceConstraint.parse("cmc: -3/4 ").H == -0.75
    assert TraceConstraint.parse("cmc:1/3").H == 1.0 / 3.0
    # a zero denominator or a float overflow is one ValueError, as bad text is
    for text in ("cmc:1/0", "cmc:1e400", "cmc:-1e400", "cmc:1e5000", "cmc:x"):
        with pytest.raises(ValueError, match="finite decimal or rational"):
            TraceConstraint.parse(text)


def test_constraint_text_keeps_today_s_short_forms():
    for text in ("none", "minimal", "cmc:0", "cmc:0.5", "cmc:1", "cmc:-2.5"):
        assert str(TraceConstraint.parse(text)) == text
    assert str(TraceConstraint.parse("cmc:0.1234567891")) == "cmc:0.1234567891"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_constraint_text_round_trips(H):
    tc = TraceConstraint("cmc", H)
    assert TraceConstraint.parse(str(tc)) == tc


def test_shape_field_enforces_trace():
    grid = small_grid()
    z = np.zeros((grid.nx, grid.ny))
    ShapeField(grid, z + 1.0, z, z - 1.0, TraceConstraint("minimal"))
    with pytest.raises(ValueError):
        ShapeField(grid, z + 1.0, z, z, TraceConstraint("minimal"))


def test_a_nan_trace_fails_the_trace_check():
    grid = small_grid()
    z = np.zeros((grid.nx, grid.ny))
    h11 = z.copy()
    h11[3, 4] = np.nan
    with pytest.raises(ValueError, match="trace constraint violated by nan"):
        ShapeField(grid, h11, z, -h11, TraceConstraint("minimal"))


def test_gauss_residual_zero_field():
    grid = small_grid()
    z = np.zeros((grid.nx, grid.ny))
    fld = ShapeField(grid, z, z, z)
    r = gauss_residual(fld, float(grid.K[0]))
    assert np.allclose(r[0, :], 0.0, atol=0.0)
    assert np.all(r[1:, :] != 0.0)


def test_codazzi_constant_umbilic_field_vanishes():
    grid = small_grid()
    lam = 0.7
    z = np.zeros((grid.nx, grid.ny))
    fld = ShapeField(grid, z + lam, z, z + lam)
    c1, c2 = codazzi_residual(fld)
    assert np.max(np.abs(c1)) == 0.0
    assert np.max(np.abs(c2)) == 0.0


def brute_force_codazzi(fld: ShapeField):
    # independent straight-line implementation: explicit loops, scalar math
    g = fld.grid
    n1 = np.full((g.nx, g.ny), np.nan)
    n2 = np.full((g.nx, g.ny), np.nan)
    for i in range(1, g.nx - 1):
        mu = g.mu[i]
        dmu = g.dmu[i]
        for j in range(1, g.ny - 1):
            dy_h11 = (fld.h11[i, j + 1] - fld.h11[i, j - 1]) / (2 * g.hy)
            dx_h12 = (fld.h12[i + 1, j] - fld.h12[i - 1, j]) / (2 * g.hx)
            dy_h12 = (fld.h12[i, j + 1] - fld.h12[i, j - 1]) / (2 * g.hy)
            dx_h22 = (fld.h22[i + 1, j] - fld.h22[i - 1, j]) / (2 * g.hx)
            n1[i, j] = (dy_h11 - dx_h12) / mu - dmu * fld.h12[i, j]
            n2[i, j] = (dx_h22 - dy_h12) / mu + 0.5 * dmu * (
                fld.h22[i, j] - fld.h11[i, j]
            )
    return n1[1:-1, 1:-1], n2[1:-1, 1:-1]


def test_codazzi_matches_brute_force_on_random_field():
    grid = small_grid(8)
    rng = np.random.default_rng(42)
    fld = ShapeField(grid, rng.normal(size=(8, 8)), rng.normal(size=(8, 8)),
                     rng.normal(size=(8, 8)))
    c1, c2 = codazzi_residual(fld)
    b1, b2 = brute_force_codazzi(fld)
    assert np.max(np.abs(c1 - b1)) < 1e-12
    assert np.max(np.abs(c2 - b2)) < 1e-12


def test_codazzi_is_exactly_linear():
    grid = small_grid(8)
    rng = np.random.default_rng(7)
    fld = ShapeField(grid, rng.normal(size=(8, 8)), rng.normal(size=(8, 8)),
                     rng.normal(size=(8, 8)))
    c1, c2 = codazzi_residual(fld)
    d1, d2 = codazzi_residual(fld.scaled(2.0))
    assert np.array_equal(d1, 2.0 * c1)
    assert np.array_equal(d2, 2.0 * c2)


def ansatz_grid(n=41, h=1e-3):
    return GridDomain.create(PARAMS3, 1.5, n, n, h, h,
                             origin=(-0.5 * (n - 1) * h, 0.0))


def on_constraint_seed(grid, c=3.0, phase=0.3):
    K0 = grid.K[0]
    mod = np.sqrt(grid.params.mu_sq(K0) * (c - K0) / 4.0)
    return mod * np.exp(1j * phase)


def test_ansatz_requires_supercritical_ambient():
    grid = small_grid()
    with pytest.raises(ValueError):
        integrate_minimal_ansatz(grid, 0.0, 1.0 + 0j)


def test_ansatz_pointwise_relations():
    grid = ansatz_grid()
    mz = integrate_minimal_ansatz(grid, 3.0, on_constraint_seed(grid))
    dmu_mu = 0.5 * grid.params.mu_sq_prime(grid.K)[:, None]
    # b is defined pointwise from h
    assert np.max(np.abs(mz.b + 0.25 * dmu_mu * mz.h)) == 0.0
    # the swept field keeps the Gauss constraint to round-off
    rg = gauss_residual(mz.shape_field(), 3.0)
    assert np.max(np.abs(rg)) < 1e-12


def test_transport_trivial_path():
    grid = ansatz_grid(9)
    h0 = on_constraint_seed(grid)
    assert transport_ansatz(grid, 3.0, h0, [(0, 0)]) == h0
    assert transport_ansatz(grid, 3.0, h0, []) == h0


def test_transport_rejects_bad_paths():
    grid = ansatz_grid(9)
    with pytest.raises(PathLeavesDomain):
        transport_ansatz(grid, 3.0, 1 + 0j, [(0, 0), (3, 3)])
    with pytest.raises(PathLeavesDomain):
        transport_ansatz(grid, 3.0, 1 + 0j, [(0, 0), (0, 99)])


def test_path_dependence_matches_holonomy_prediction():
    grid = ansatz_grid()
    h0 = on_constraint_seed(grid)
    a = transport_ansatz(grid, 3.0, h0, [(0, 0), (30, 0), (30, 30)])
    b = transport_ansatz(grid, 3.0, h0, [(0, 0), (0, 30), (30, 30)])
    gap = (a - b) / ((30 * grid.hx) * (30 * grid.hy))
    pred = holonomy_defect(grid, 3.0, h0, (0, 0, 30, 30)).predicted
    assert abs(gap / pred - 1.0) < 0.05


def test_holonomy_measured_vs_predicted():
    grid = ansatz_grid()
    h0 = on_constraint_seed(grid)
    hd = holonomy_defect(grid, 3.0, h0, (4, 4, 36, 36))
    assert abs(hd.measured / hd.predicted - 1.0) < 0.05


def test_holonomy_area_scaling():
    grid = ansatz_grid()
    h0 = on_constraint_seed(grid)
    d1 = holonomy_defect(grid, 3.0, h0, (16, 16, 24, 24))
    d2 = holonomy_defect(grid, 3.0, h0, (12, 12, 28, 28))  # doubled side
    circ_ratio = (d2.measured * d2.area) / (d1.measured * d1.area)
    assert abs(abs(circ_ratio) - 4.0) < 0.08


def test_holonomy_orientation_reversal_negates():
    grid = ansatz_grid()
    h0 = on_constraint_seed(grid)
    fwd = [(4, 4), (36, 4), (36, 36), (4, 36), (4, 4)]
    rev = list(reversed(fwd))
    area = (32 * grid.hx) * (32 * grid.hy)
    m_fwd = (transport_ansatz(grid, 3.0, h0, fwd) - h0) / area
    m_rev = (transport_ansatz(grid, 3.0, h0, rev) - h0) / area
    # exact antisymmetry up to the second-order (M-1)^2/M holonomy term
    assert abs(m_rev + m_fwd) / abs(m_fwd) < 2e-2


def test_holonomy_loop_area_guard():
    grid = ansatz_grid(9)
    with pytest.raises(ValueError):
        holonomy_defect(grid, 3.0, 1 + 0j, (0, 0, 1, 2))


def test_holonomy_converges_as_loops_shrink():
    # measured/predicted -> 1 at least first order in the loop side
    grid = ansatz_grid(65)
    h0 = on_constraint_seed(grid)
    gaps = []
    for half in (24, 12, 6):
        loop = (32 - half, 32 - half, 32 + half, 32 + half)
        hd = holonomy_defect(grid, 3.0, h0, loop)
        gaps.append(abs(hd.measured / hd.predicted - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[2] > 2.0  # better than flat, consistent with O(side)


def test_holonomy_vanishes_at_an_obstruction_root():
    # exceptional ambient value: for c slightly above K1 the obstruction
    # cubic has a root inside (K2, K1); the transport defect measured
    # around that point collapses relative to a generic center
    from fractions import Fraction

    from hcmu_lab.algebra import CubicData, certify_nonvanishing, obstruction_poly
    from hcmu_lab.profile import implicit_x_of_K

    c = 2.1
    cert = certify_nonvanishing(
        obstruction_poly(CubicData.from_extremes(2, 1), Fraction(21, 10)),
        (1, 2),
    )
    assert not cert.root_free
    lo, hi = cert.root_intervals[-1]
    K_star = float((lo + hi) / 2)
    assert 1.0 < K_star < 2.0
    params = validate_params(2, 1, c=c)
    x_star = implicit_x_of_K(params, 1.5, K_star)

    n, h = 41, 1e-3
    mid = (n - 1) // 2
    grid_root = GridDomain.create(params, 1.5, n, n, h, h,
                                  origin=(x_star - mid * h, 0.0))
    grid_generic = GridDomain.create(params, 1.5, n, n, h, h,
                                     origin=(-mid * h, 0.0))
    h_root = on_constraint_seed(grid_root, c=c)
    h_gen = on_constraint_seed(grid_generic, c=c)
    loop = (mid - 8, mid - 8, mid + 8, mid + 8)
    d_root = holonomy_defect(grid_root, c, h_root, loop)
    d_gen = holonomy_defect(grid_generic, c, h_gen, loop)
    assert abs(d_root.measured) < 0.05 * abs(d_gen.measured)
    # and the defect keeps shrinking as the loop closes on the root
    tight = (mid - 3, mid - 3, mid + 3, mid + 3)
    d_tight = holonomy_defect(grid_root, c, h_root, tight)
    assert abs(d_tight.measured) < abs(d_root.measured)


def test_float_obstruction_matches_exact_kernel():
    cd = CubicData.from_extremes(2, 1)
    for c in (Fraction(0), Fraction(3), Fraction(-7, 2)):
        phi = obstruction_poly(cd, c)
        for K in (1.1, 1.5, 1.93):
            exact = float(phi(Fraction(K).limit_denominator(10 ** 8)))
            approx = PARAMS.obstruction(
                float(Fraction(K).limit_denominator(10 ** 8)), float(c)
            )
            assert abs(exact - approx) < 1e-10 * max(1.0, abs(exact))


def test_field_csv_roundtrip(tmp_path):
    grid = small_grid(9, 0.01)
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(grid.nx, grid.ny))
    path = tmp_path / "h11.csv"
    write_field_csv(arr, grid, path)
    back, meta = read_field_csv(path)
    assert np.array_equal(arr, back)
    assert meta["nx"] == grid.nx and meta["hx"] == grid.hx
    assert meta["x0"] == grid.x0


@pytest.mark.parametrize("header,ln", [
    ("# nx,ny,hx,hy = 1,one,0.1,0.1\n", 1),   # bad value
    ("# origin = 0,0\n# c = 0\n", 2),         # a mesh key, not a field key
    ("# origin = 0,0\n# no equals sign\n", 2),
])
def test_field_csv_header_errors_carry_line_numbers(tmp_path, header, ln):
    path = tmp_path / "h11.csv"
    path.write_text(header + "0\n")
    with pytest.raises(FormatError, match=f"line {ln}"):
        read_field_csv(path)
