import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from hcmu_lab import optimize
from hcmu_lab.errors import NonFiniteIterate
from hcmu_lab.fields import (
    GridDomain,
    ShapeField,
    TraceConstraint,
    codazzi_residual,
    gauss_residual,
)
from hcmu_lab.optimize import (
    _BandedNormal,
    _damped_step,
    _Problem,
    optimize_shape_field,
)
from hcmu_lab.profile import solve_curvature_ode, validate_params
from hcmu_lab.realize import family_shape_field, solve_codazzi_family

PARAMS = validate_params(2, 1)


def combined_l2(fld: ShapeField, c: float) -> float:
    w2 = fld.grid.hx * fld.grid.hy
    rg = gauss_residual(fld, c)
    c1, c2 = codazzi_residual(fld)
    return math.sqrt(w2 * (np.sum(rg * rg) + np.sum(c1 * c1) + np.sum(c2 * c2)))


def family_seed(grid):
    prof = solve_curvature_ode(PARAMS, 1.5, (-1, 1), 1e-3)
    fam = solve_codazzi_family(prof, 0.0, 1.0)
    return family_shape_field(fam, grid)


def test_unconstrained_from_family_seed_converges():
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    seed_field = family_seed(grid)
    start = combined_l2(seed_field, 0.0)
    fld, rep = optimize_shape_field(grid, 0.0, TraceConstraint("none"),
                                    init_field=seed_field, tol=1e-10,
                                    max_iter=30, refine=False)
    assert rep.converged
    assert rep.stop_reason == "converged"
    assert rep.total_l2 < 1e-8
    # descent: never worse than the seed
    assert rep.total_l2 <= start


def test_minimal_constraint_floors_and_persists():
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    fld, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                    seed=3, max_iter=30)
    assert not rep.converged
    assert rep.floor_l2 > 1e-4
    (nx0, _, f0), (nx1, _, f1) = rep.refinement_history
    assert (nx0, nx1) == (16, 32)
    assert f1 / f0 >= 0.9
    # constraint respected on the returned field
    assert np.max(np.abs(fld.h11 + fld.h22)) < 1e-12
    # on the floor no damping up to the cap gives a smaller residual; the
    # gain-ratio rule needs 33 factorizations over both grids where
    # halving/doubling the damping needed 42
    assert rep.stop_reason == "lam_max"
    assert rep.factorizations == 33


@pytest.mark.parametrize("constraint", ["minimal", "cmc:0", "cmc:0.5", "cmc:1"])
@pytest.mark.parametrize("seed", [0, 1])
def test_constrained_floor_is_the_umbilic_gauss_defect(constraint, seed):
    # with trace 2H, det h = H^2 - (h11 - H)^2 - h12^2 <= H^2, so where
    # K - c - H^2 > 0 every Gauss row is at least w (K - c - H^2); the
    # umbilic field h = H I attains that with both Codazzi rows zero, so the
    # floor is sqrt(hx hy ny sum over columns of (K - c - H^2)^2)
    trace = TraceConstraint.parse(constraint)
    H = trace.trace_target() / 2.0
    grid = GridDomain.create(PARAMS, 1.5, 32, 32, 0.01, 0.01,
                             origin=(-0.16, 0.0))
    _, rep = optimize_shape_field(grid, 0.0, trace, seed=seed, max_iter=25)
    grids = (grid, optimize._refine_grid(grid))
    for g, (nx, ny, floor) in zip(grids, rep.refinement_history):
        assert (nx, ny) == (g.nx, g.ny)
        gap = g.K - 0.0 - H * H
        assert np.min(gap) > 0.0
        closed = math.sqrt(g.hx * g.hy * g.ny * np.sum(gap * gap))
        assert abs(floor - closed) <= 1e-12 * closed


def test_cmc_zero_equals_minimal_bitwise():
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    _, r_min = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                    seed=5, max_iter=25, refine=False)
    _, r_cmc = optimize_shape_field(grid, 0.0, TraceConstraint("cmc", 0.0),
                                    seed=5, max_iter=25, refine=False)
    assert r_min.floor_l2 == r_cmc.floor_l2
    assert r_min.gauss_max == r_cmc.gauss_max


def test_codazzi_limited_floor_when_gauss_is_satisfiable():
    # with c above the curvature range the Gauss equation admits pointwise
    # solutions, so a persistent floor here is the integrability obstruction
    params3 = validate_params(2, 1, c=3.0)
    grid = GridDomain.create(params3, 1.5, 16, 16, 0.02, 0.02,
                             origin=(-0.15, 0.0))
    floors = []
    for seed in (0, 1):
        _, rep = optimize_shape_field(grid, 3.0, TraceConstraint("minimal"),
                                      seed=seed, max_iter=60, refine=False)
        floors.append(rep.floor_l2)
    assert min(floors) > 1e-4


def test_report_is_deterministic_for_a_seed():
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    _, r1 = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                 seed=9, max_iter=20, refine=False)
    _, r2 = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                 seed=9, max_iter=20, refine=False)
    assert r1.to_lines() == r2.to_lines()


def test_l2_max_consistency_invariant():
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                  seed=1, max_iter=10, refine=False)
    n = grid.node_count()
    assert rep.gauss_l2 <= rep.gauss_max * math.sqrt(n) + 1e-15
    assert rep.codazzi_l2 <= rep.codazzi_max * math.sqrt(n) + 1e-15


def test_non_finite_seed_is_reported():
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    z = np.zeros((8, 8))
    bad = ShapeField(grid, z + np.inf, z, z)
    with pytest.raises(NonFiniteIterate):
        optimize_shape_field(grid, 0.0, TraceConstraint("none"),
                             init_field=bad, refine=False)


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("lam", [1e-3, 1e-14])
def test_damped_step_matches_a_dense_solve(constraint, lam):
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    u = problem.random_init(0)
    J = problem.jacobian(u)
    g = J.T @ problem.residual(u)
    A = (J.T @ J).toarray() + lam * np.eye(u.size)
    step = _damped_step(_BandedNormal(problem), g, lam, problem.gauss_rows(u))
    # backward error at the level of a dense LU's (about 1e-15 here)
    assert np.linalg.norm(A @ step + g) <= 1e-12 * np.linalg.norm(g)
    # forward error: J^T J is singular to working precision, so at
    # lam = 1e-14 (condition number about 1e14) the step is determined only
    # to about 1e-2 and no two solvers agree more closely; at lam = 1e-3
    # (about 2e3) it is determined to 1e-10
    if lam == 1e-3:
        dense = np.linalg.solve(A, -g)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_band_assembly_equals_the_normal_matrix(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    u = problem.random_init(2)
    J = problem.jacobian(u)
    lam = 1e-3
    normal = _BandedNormal(problem)
    # node-major along the shorter axis: a Codazzi row spans two node steps
    assert normal.kd == 2 * problem.m * min(nx, ny)
    ab = normal.assemble(lam, problem.gauss_rows(u))
    n = u.size
    lower = sum(np.diag(ab[d, :n - d], -d) for d in range(normal.kd + 1))
    band = lower + np.tril(lower, -1).T
    expected = (J.T @ J).toarray() + lam * np.eye(n)
    assert np.allclose(band, expected, rtol=0,
                       atol=1e-14 * np.max(np.abs(expected)))


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_jacobian_is_the_derivative_of_the_residual(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    u = problem.random_init(3)
    delta = 0.1 * problem.random_init(4)
    r = problem.residual(u)
    gap = problem.residual(u + delta) - r - problem.jacobian(u) @ delta
    # the residual is quadratic in the unknowns: what J misses is the Gauss
    # term -w (d11 d22 - d12^2) of each node, whose m unknowns are consecutive
    d = delta.reshape(-1, problem.m).T
    d22 = d[2] if problem.m == 3 else -d[0]     # minimal: h22 = -h11
    quad = -problem.w * (d[0] * d22 - d[1] * d[1])
    N = problem.N
    atol = 1e-13 * np.max(np.abs(r))
    assert np.max(np.abs(quad)) > 1e3 * atol
    assert np.allclose(gap[:N], quad, rtol=0, atol=atol)
    assert np.allclose(gap[N:], 0.0, rtol=0, atol=atol)


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_the_layout_round_trips(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    trace = TraceConstraint(constraint)
    problem = _Problem(grid, 0.0, trace)
    h11, h12, h22 = np.random.default_rng(5).uniform(-1.0, 1.0, (3, nx, ny))
    if problem.m == 2:
        h22 = -h11
    fld = ShapeField(grid, h11, h12, h22, trace)
    back = problem.unpack(problem.pack(fld))
    for name in ("h11", "h12", "h22"):
        assert np.array_equal(getattr(back, name), getattr(fld, name))
    # a seed draws the same initial field whatever the order of the unknowns
    draw = np.random.default_rng(6).uniform(-1.0, 1.0, (problem.m, nx, ny))
    init = problem.unpack(problem.random_init(6))
    comps = (init.h11, init.h12, init.h22)[:problem.m]
    assert all(np.array_equal(a, b) for a, b in zip(comps, draw))


def test_a_failed_factorization_is_a_rejected_step(monkeypatch):
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    run = lambda: optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                       seed=4, max_iter=3, refine=False)[1]
    clean = run()
    assert clean.rejected_steps == 0

    factor = optimize.cholesky_banded
    step = optimize._damped_step
    lams = []

    def failing_once(*args, **kwargs):
        if len(lams) == 1:
            raise LinAlgError("1-th leading minor not positive definite")
        return factor(*args, **kwargs)

    def recording_step(normal, g, lam, rows):
        lams.append(lam)
        return step(normal, g, lam, rows)

    monkeypatch.setattr(optimize, "cholesky_banded", failing_once)
    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    rep = run()
    # the failure is counted, lam is multiplied by nu = 2, and the run goes on
    assert lams[:2] == [1e-3, 2e-3]
    assert rep.rejected_steps == 1
    assert rep.factorizations == clean.factorizations + 1
    assert rep.iterations == clean.iterations == 3
