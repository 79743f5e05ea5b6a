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

from conftest import lm_jacobian, lm_second_order

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
    # on the floor a trial whose predicted decrease is bounded, by 2 |g|^2 /
    # lam, below what F resolves is rejected unfactored and ends the run: 9
    # factorizations over both grids with the Newton term, where
    # Gauss-Newton needed 10, factoring that trial 12 and walking the
    # damping up to its cap 33
    assert rep.stop_reason == "floor"
    assert rep.factorizations == 9
    assert rep.rejected_steps == 2


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


def test_a_floor_stop_follows_a_rejected_step_at_the_closed_form_floor():
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                  seed=3, max_iter=30, refine=False)
    assert rep.stop_reason == "floor"
    assert rep.rejected_steps >= 1
    closed = math.sqrt(grid.hx * grid.hy * grid.ny * np.sum(grid.K ** 2))
    assert abs(rep.floor_l2 - closed) <= 1e-12 * closed


@pytest.mark.parametrize("n, seed, stop", [(16, 3, "floor"),
                                           (32, 0, "floor")])
def test_no_trial_is_factored_whose_decrease_bound_is_under_the_floor(
        monkeypatch, n, seed, stop):
    # with the Newton term both runs reach the floor in 8 accepted steps and
    # end on the bound: a trial whose 2 |g|^2 / lam is under 8 eps F
    grid = GridDomain.create(PARAMS, 1.5, n, n, 0.01, 0.01,
                             origin=(-n * 0.005, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
    iterates, trials = [], []
    gauss_rows = problem.gauss_rows
    step = optimize._damped_step

    def recording_rows(u):
        iterates.append(u.copy())
        trials.append([])
        return gauss_rows(u)

    def recording_step(normal, g, lam, *rest):
        trials[-1].append((g.copy(), lam))
        return step(normal, g, lam, *rest)

    monkeypatch.setattr(problem, "gauss_rows", recording_rows)
    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    run = optimize._gauss_newton(problem, problem.random_init(seed), 1e-8,
                                 30, 1e-3)
    assert run.stop_reason == stop
    assert run.factorizations == sum(map(len, trials)) == 8
    assert run.rejected_steps == 1

    def bound_over_floor(u, g, lam):
        r = problem.residual(u)
        return 2.0 * float(g @ g) / lam / (optimize._FLOOR_EPS * float(r @ r))

    ratios = [bound_over_floor(u, g, lam)
              for u, made in zip(iterates, trials) for g, lam in made]
    assert min(ratios) > 1.0
    # the run ends on a trial it did not factor, at the damping it returns,
    # whose bound is under the floor
    u = iterates[-1]
    g = problem.gradient(gauss_rows(u), problem.residual(u))
    assert trials[-1] == []
    assert bound_over_floor(u, g, run.lam) <= 1.0


@pytest.mark.parametrize("seeded", [False, True])
def test_the_refinement_run_starts_from_the_refined_coarse_solution(
        monkeypatch, seeded):
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    init = family_seed(grid) if seeded else None
    solve = optimize._gauss_newton
    step = optimize._damped_step
    starts, runs, lams = [], [], []

    def recording_solve(problem, u0, tol, max_iter, lam):
        starts.append((problem, u0.copy(), len(lams)))
        runs.append(solve(problem, u0, tol, max_iter, lam))
        return runs[-1]

    def recording_step(normal, g, lam, *rest):
        lams.append(lam)
        return step(normal, g, lam, *rest)

    monkeypatch.setattr(optimize, "_gauss_newton", recording_solve)
    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    fld, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                    seed=2, max_iter=5, init_field=init)
    assert rep.iterations > 0
    (coarse, u_coarse, _), (fine, u_fine, k_fine) = starts
    assert (fine.grid.nx, fine.grid.ny) == (16, 16)
    first = coarse.pack(init) if seeded else coarse.random_init(2)
    assert np.array_equal(u_coarse, first)
    assert np.array_equal(u_fine,
                          fine.pack(optimize._refine_field(fld, fine.grid)))
    # the coarse run starts at 1e-3 and the 2x run at the damping the
    # coarse run ended with, which is below that cap here
    assert lams[0] == 1e-3
    assert runs[0].lam < 1e-3
    assert lams[k_fine] == runs[0].lam


def test_the_carried_damping_is_capped_at_the_initial_damping(monkeypatch):
    # a coarse run that ends with its damping above 1e-3 (raised by rejected
    # steps) hands on 1e-3, not its own value
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    solve = optimize._gauss_newton
    lams = []

    def raised_damping(problem, u0, tol, max_iter, lam):
        lams.append(lam)
        return solve(problem, u0, tol, max_iter, lam)._replace(lam=1e6)

    monkeypatch.setattr(optimize, "_gauss_newton", raised_damping)
    optimize_shape_field(grid, 0.0, TraceConstraint("minimal"), seed=2,
                         max_iter=5)
    assert lams == [1e-3, 1e-3]


def test_a_family_start_carries_the_damping_into_the_refinement_run():
    # a perturbed family field: the 2x run begins at the coarse run's final
    # damping and Gauss-Newton converges in 3 factorizations, where starting
    # again from 1e-3 took 9
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    fam = family_seed(grid)
    noise = 1e-2 * np.random.default_rng(0).standard_normal((3, 16, 16))
    start = ShapeField(grid, fam.h11 + noise[0], fam.h12 + noise[1],
                       fam.h22 + noise[2])
    run = lambda refine: optimize_shape_field(
        grid, 0.0, TraceConstraint("none"), init_field=start, tol=1e-10,
        max_iter=30, refine=refine)[1]
    coarse, rep = run(False), run(True)
    assert rep.refinement_stop_reason == "converged"
    assert rep.refinement_history[-1][2] < 1e-10
    assert (coarse.factorizations, rep.factorizations) == (8, 11)


def test_a_worse_refined_start_carries_the_damping_too():
    # a random start's solution is rough, and refining it raises |r|; the 2x
    # run still begins at the coarse run's final damping (starting afresh
    # from 1e-3 reaches only floor_16x16 = 3.1e-9, in 22 factorizations)
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    none = TraceConstraint("none")
    fld, _ = optimize_shape_field(grid, 0.0, none, seed=2, max_iter=40,
                                  refine=False)
    coarse = _Problem(grid, 0.0, none)
    fine = _Problem(optimize._refine_grid(grid), 0.0, none)
    r0 = coarse.residual(coarse.random_init(2))
    r1 = fine.residual(fine.pack(optimize._refine_field(fld, fine.grid)))
    assert r1 @ r1 > r0 @ r0
    _, rep = optimize_shape_field(grid, 0.0, none, seed=2, max_iter=40)
    assert rep.to_lines() == [
        "constraint=none", "seed=2", "iterations=11", "converged=true",
        "gauss_max=3.1652913623503309e-09", "gauss_l2=3.6169597278603804e-11",
        "codazzi_max=5.103770097519833e-11",
        "codazzi_l2=6.7922940889690918e-13",
        "floor_l2=3.6175974346053129e-11", "floor_8x8=3.6175974346053129e-11",
        "floor_16x16=6.8753654709957886e-11", "stop_reason=converged",
        "factorizations=27", "rejected_steps=5",
        "stop_reason_16x16=converged"]


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
    n = grid.nx * grid.ny
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


# m = 2 with Gauss residuals of one sign and of both signs, and m = 3
NEWTON_CASES = ["minimal", "cmc:2", "none"]


@pytest.mark.parametrize("constraint", NEWTON_CASES)
@pytest.mark.parametrize("lam", [1e-3, 1e-14])
def test_damped_step_matches_a_dense_solve(constraint, lam):
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint.parse(constraint))
    u = problem.random_init(0)
    J = lm_jacobian(problem, u)
    r = problem.residual(u)
    g = J.T @ r
    A = (J.T @ J).toarray() + lm_second_order(problem, u) + lam * np.eye(u.size)
    step = _damped_step(_BandedNormal(problem), g, lam, problem.gauss_rows(u),
                        problem.second_order(r))
    # backward error at the level of a dense LU's (about 1e-15 here)
    assert np.linalg.norm(A @ step + g) <= 1e-12 * np.linalg.norm(g)
    # forward error: J^T J is singular to working precision, so at
    # lam = 1e-14 (condition number about 1e14) the step is determined only
    # to about 1e-2 and no two solvers agree more closely; at lam = 1e-3
    # (about 2e3) it is determined to 1e-10
    if lam == 1e-3:
        dense = np.linalg.solve(A, -g)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@pytest.mark.parametrize("constraint", NEWTON_CASES)
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_band_assembly_equals_the_normal_matrix(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint.parse(constraint))
    u = problem.random_init(2)
    J = lm_jacobian(problem, u)
    r = problem.residual(u)
    if constraint == "cmc:2":
        # K - c - H^2 < 0: the clip at 0 acts on some nodes and not others
        assert np.min(r[:problem.N]) < 0.0 < np.max(r[:problem.N])
    lam = 1e-3
    normal = _BandedNormal(problem)
    # node-major along the shorter axis: a Codazzi row spans two node steps
    assert normal.kd == 2 * problem.m * min(nx, ny)
    assert normal.ab.size == optimize._band_doubles(problem.m, nx, ny)
    ab = normal.assemble(lam, problem.gauss_rows(u), problem.second_order(r))
    n = u.size
    lower = sum(np.diag(ab[d, :n - d], -d) for d in range(normal.kd + 1))
    band = lower + np.tril(lower, -1).T
    expected = ((J.T @ J).toarray() + lm_second_order(problem, u)
                + lam * np.eye(n))
    assert np.allclose(band, expected, rtol=0,
                       atol=1e-14 * np.max(np.abs(expected)))


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_band_constant_is_the_codazzi_product_bit_for_bit(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint.parse(constraint))
    normal = _BandedNormal(problem)
    C = (problem._jc.T @ problem._jc).toarray()
    kd, n = normal.kd, C.shape[0]
    # kd is C's half-bandwidth exactly: nothing lies outside the band, and
    # its outermost diagonal is not empty
    assert not np.any(np.tril(C, -kd - 1)) and np.any(np.diag(C, -kd))
    expected = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        expected[d, :n - d] = np.diag(C, -d)
    ab = normal.assemble(0.0, np.zeros((problem.m, problem.N)), None)
    assert np.array_equal(ab, expected)


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8)])
def test_jacobian_is_the_derivative_of_the_residual(constraint, nx, ny):
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    u = problem.random_init(3)
    delta = 0.1 * problem.random_init(4)
    r = problem.residual(u)
    gap = problem.residual(u + delta) - r - lm_jacobian(problem, u) @ delta
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

    def recording_step(normal, g, lam, *rest):
        lams.append(lam)
        return step(normal, g, lam, *rest)

    monkeypatch.setattr(optimize, "cholesky_banded", failing_once)
    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    rep = run()
    # the failure is counted, lam is multiplied by nu = 2, and the run goes on
    assert lams[:2] == [1e-3, 2e-3]
    assert rep.rejected_steps == 1
    assert rep.factorizations == clean.factorizations + 1
    assert rep.iterations == clean.iterations == 3


def test_a_band_above_the_cap_is_rejected_before_any_problem_is_built(
        monkeypatch):
    # the largest grid in use, the 2x run of 32x32 at m = 3, is inside it
    assert optimize._band_doubles(3, 64, 64) <= optimize.MAX_BAND_DOUBLES
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    minimal, none = TraceConstraint("minimal"), TraceConstraint("none")
    # 8x8 at m = 2: 2 * 64 * 33 = 4224 doubles; 16x16: 2 * 256 * 65 = 33280
    monkeypatch.setattr(optimize, "MAX_BAND_DOUBLES", 33280)
    _, rep = optimize_shape_field(grid, 0.0, minimal, seed=1, max_iter=1)
    assert len(rep.refinement_history) == 2

    def no_problem(*args):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(optimize, "_Problem", no_problem)
    monkeypatch.setattr(optimize, "MAX_BAND_DOUBLES", 33279)
    with pytest.raises(ValueError, match="a 16x16 grid needs an LM band of "
                                         "33280 doubles, more than 33279"):
        optimize_shape_field(grid, 0.0, minimal)
    monkeypatch.setattr(optimize, "MAX_BAND_DOUBLES", 4223)
    with pytest.raises(ValueError, match="a 8x8 grid needs an LM band of "
                                         "4224 doubles"):
        optimize_shape_field(grid, 0.0, minimal, refine=False)
    # 8x8 at m = 3: 3 * 64 * 49 = 9408 doubles
    monkeypatch.setattr(optimize, "MAX_BAND_DOUBLES", 9407)
    with pytest.raises(ValueError, match="a 8x8 grid needs an LM band of "
                                         "9408 doubles"):
        optimize_shape_field(grid, 0.0, none, refine=False)
