import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

from conftest import full_grid_codazzi_jacobian, lm_jacobian, lm_second_order

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


def perturbed_family_start(grid):
    """The diagonal family's field on a 16x16 grid plus seeded noise of
    about 1e-2 in every component."""
    fam = family_seed(grid)
    noise = 1e-2 * np.random.default_rng(0).standard_normal((3, 16, 16))
    return ShapeField(grid, fam.h11 + noise[0], fam.h12 + noise[1],
                      fam.h22 + noise[2])


def recorded_runs(monkeypatch):
    """The (problem, u0, run) of every LM run made from here on, in order."""
    solve, runs = optimize._gauss_newton, []

    def recording(problem, u0, *args):
        runs.append((problem, u0.copy(), solve(problem, u0, *args)))
        return runs[-1][2]

    monkeypatch.setattr(optimize, "_gauss_newton", recording)
    return runs


def counted(calls, name, call, fail_at=None):
    """``call``, counted in ``calls[name]``; call fail_at raises LinAlgError."""
    def counting(*args, **kwargs):
        calls[name] += 1
        if calls[name] == fail_at:
            raise LinAlgError("1-th leading minor not positive definite")
        return call(*args, **kwargs)
    return counting


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
    # on the floor a trial whose predicted decrease CG bounds below what F
    # resolves is rejected unfactored and ends the run: 8 factorizations
    # over both grids, none of them on the 2x grid, whose start CG proves
    # on the floor
    assert rep.stop_reason == "floor"
    assert rep.factorizations == 8
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
def test_a_trial_is_factored_only_when_cg_cannot_prove_it_on_the_floor(
        monkeypatch, n, seed, stop):
    # with the Newton term both runs reach the floor in 8 accepted steps and
    # end on a trial whose decrease CG bounds under eps F / 2
    grid = GridDomain.create(PARAMS, 1.5, n, n, 0.01, 0.01,
                             origin=(-n * 0.005, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
    step, made = optimize._damped_step, []

    def recording_step(normal, g, lam, rows, second):
        made.append((g.copy(), lam, rows, second))
        return step(normal, g, lam, rows, second)

    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    run = optimize._gauss_newton(problem, problem.random_init(seed), 1e-8,
                                 30, 1e-3)
    assert run.stop_reason == stop
    assert run.factorizations == len(made) == 8
    assert run.rejected_steps == 1
    factored = [t for t in run.trials if t.kind != "chord"][:-1]
    for t, (g, lam, rows, second) in zip(factored, made, strict=True):
        assert t.lam == lam and optimize._decrease_bound(
            problem, rows, second, g, lam, optimize._CERTIFY_EPS * t.F) == np.inf
    # the run ends on a trial it did not factor, at the damping it returns,
    # whose decrease CG bounds under eps F / 2
    assert run.trials[-1][:2] == ("proved", run.lam)
    r = problem.residual(run.u)
    rows = problem.gauss_rows(run.u)
    bound = optimize._decrease_bound(problem, rows, problem.second_order(r),
                                     problem.gradient(rows, r), run.lam,
                                     optimize._CERTIFY_EPS * float(r @ r))
    assert bound <= 0.5 * np.finfo(float).eps * float(r @ r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(8, 12), st.integers(8, 12),
       st.sampled_from(["minimal", "cmc:2", "none"]),
       st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 2.0), st.floats(-4.0, 4.0))
def test_the_cg_bound_holds_on_the_factored_step(nx, ny, constraint, seed,
                                                 log_lam, log_scale):
    # m = 2 with Gauss residuals of one sign and of both signs, and m = 3;
    # the target is 2 g^T B^-1 g scaled by 2^s, |s| <= 4, so that CG both
    # gives up and runs on to certify or to its cap
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint.parse(constraint))
    u = problem.random_init(seed)
    r = problem.residual(u)
    rows, second = problem.gauss_rows(u), problem.second_order(r)
    g = problem.gradient(rows, r)
    lam = 10.0 ** log_lam
    d = _damped_step(_BandedNormal(problem), g, lam, rows, second)
    pred = float(d @ (lam * d - g))
    gBg = -float(g @ d)
    target = 2.0 * gBg * 2.0 ** log_scale
    bound = optimize._decrease_bound(problem, rows, second, g, lam, target)
    # a bound is found only under the target, and it bounds the decrease
    # of the step the band Cholesky takes: certification never fires on a
    # step whose decrease exceeds the target
    assert bound == np.inf or bound <= target
    assert pred <= bound
    # and it is a bound on 2 g^T B^-1 g, to rounding, before the factor 2
    # that pred <= 2 g^T B^-1 g leaves
    assert 2.0 * gBg <= bound * (1.0 + 1e-12)


def cg_decrease_bound(problem, rows, second, g, lam, target):
    """`optimize._decrease_bound` without its norm bound: CG from the first
    product on, kept here to show the norm bound changes no result."""
    def upper(x, z):
        return 2.0 * (float(g @ x) + float(x @ z) + float(z @ z) / lam)

    zz = float(g @ g)
    if 2.0 * zz / lam <= target:
        return 2.0 * zz / lam
    product = problem.normal_operator(rows, second, lam)
    x = np.zeros_like(g)
    z, p = g.copy(), g.copy()
    lower, products, last = 0.0, 0, np.inf
    while products < optimize._CG_PRODUCTS:
        q = product(p)
        products += 1
        pq = float(p @ q)
        if not (np.isfinite(pq) and pq > 0.0):
            break
        alpha = zz / pq
        lower += alpha * zz
        if 2.0 * lower > target:
            break
        x += alpha * p
        z -= alpha * q
        screen = upper(x, z)
        if screen <= target:
            products += 1
            bound = upper(x, g - product(x))
            if bound <= target:
                return bound
        elif (screen * (screen / last) ** (optimize._CG_PRODUCTS - products)
              > target):
            break
        last = screen
        zz, zz_old = float(z @ z), zz
        p = z + (zz / zz_old) * p
    return np.inf


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(8, 12), st.integers(8, 12),
       st.sampled_from(["minimal", "cmc:2", "none"]),
       st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 2.0), st.floats(-4.0, 4.0),
       st.floats(0.0, 3.0))
def test_the_norm_bound_bounds_b_and_changes_no_decrease_bound(
        nx, ny, constraint, seed, log_lam, log_scale, log_size):
    # fields up to 1000x the random start's, so that the Gauss rows, not
    # J_c, set the top of B's spectrum on some draws
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint.parse(constraint))
    u = 10.0 ** log_size * problem.random_init(seed)
    r = problem.residual(u)
    rows, second = problem.gauss_rows(u), problem.second_order(r)
    g = problem.gradient(rows, r)
    lam = 10.0 ** log_lam
    ab = _BandedNormal(problem).assemble(lam, rows, second)
    n = u.size
    lower = sum(np.diag(ab[d, :n - d], -d) for d in range(ab.shape[0]))
    B = lower + np.tril(lower, -1).T
    # Lambda bounds the Rayleigh quotient of B at random vectors and at its
    # top eigenvector
    norm = problem.norm_bound(rows, second, lam)
    p = np.random.default_rng(seed).standard_normal((n, 4))
    p[:, 0] = np.linalg.eigh(B)[1][:, -1]
    assert np.all(np.einsum("ik,ik->k", p, B @ p) / np.sum(p * p, axis=0)
                  <= norm)
    # and _decrease_bound, norm bound and all, returns what CG alone does
    target = 2.0 * float(g @ np.linalg.solve(B, g)) * 2.0 ** log_scale
    assert (optimize._decrease_bound(problem, rows, second, g, lam, target)
            == cg_decrease_bound(problem, rows, second, g, lam, target))


def test_a_certified_refinement_run_builds_no_band(monkeypatch):
    # the 2x run of the 16x16 minimal case starts on its floor: CG proves the
    # first trial's decrease under one ulp of F, so that run factors nothing
    # and never allocates its band
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    band = optimize._BandedNormal
    bound, operator = optimize._decrease_bound, _Problem.normal_operator
    built, trials, products = [], [], []

    def counting_band(problem):
        built.append(problem.grid.nx)
        return band(problem)

    def recording_operator(self, *args):
        product = operator(self, *args)

        def recorded(v):
            products.append((v.copy(), product(v)))
            return products[-1][1]

        return recorded

    def recording_bound(problem, *args):
        products.clear()
        trials.append((problem, args, bound(problem, *args), products[:]))
        return trials[-1][2]

    monkeypatch.setattr(optimize, "_BandedNormal", counting_band)
    runs = recorded_runs(monkeypatch)
    monkeypatch.setattr(optimize, "_decrease_bound", recording_bound)
    monkeypatch.setattr(_Problem, "normal_operator", recording_operator)
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                  seed=3, max_iter=30)
    assert built == [16]
    assert [(run.stop_reason, run.factorizations) for *_, run in runs] == [
        ("floor", 8), ("floor", 0)]
    assert rep.refinement_stop_reason == "floor"
    assert rep.factorizations == 8
    # the norm bound rules out the first 7 factored trials before CG's
    # first product, and CG the 8th after it: there g^T B g / |g|^2 is
    # about 1e-4 Lambda, since g lies near the null space of J_c.  The
    # coarse run's last trial is bounded at x = 0, with no product
    counts = [len(made) for *_, made in trials]
    assert counts[:-1] == [0] * 7 + [1, 0] and counts[-1] > 1
    for k, (problem, (rows, second, g, lam, target), b, _) in enumerate(
            trials[:8]):
        assert b == np.inf
        norm = problem.norm_bound(rows, second, lam) * optimize._NORM_MARGIN
        assert (2.0 * float(g @ g) / norm > target) == (k < 7)
    # the certified trial: its bound is the explicit-residual bound at the
    # last vector B was applied to, it is under one ulp of F, and it bounds
    # the decrease of the step that factoring would have taken
    problem, (rows, second, g, lam, target), b, made = trials[-1]
    assert problem.grid.nx == 32
    x, Bx = made[-1]
    z = g - Bx
    explicit = 2.0 * (float(g @ x) + float(x @ z) + float(z @ z) / lam)
    assert abs(b - explicit) <= 1e-12 * explicit
    r = problem.residual(runs[-1][2].u)
    assert b <= target == optimize._CERTIFY_EPS * float(r @ r)
    d = _damped_step(band(problem), g, lam, rows, second)
    assert 0.0 < float(d @ (lam * d - g)) <= b


@pytest.mark.parametrize("n, constraint, seed, made", [
    # the first CG iterate's bound exceeds the bound at x = 0; the proof
    # still comes, after 6 products
    (16, "cmc:1", 1, [(16, 6, True)]),
    # on the 2x grid the bound falls ever more slowly, and CG gives up on
    # a trial it cannot prove after 12 products, where it took all 16
    (32, "cmc:0.5", 0, [(32, 3, True), (64, 12, False)]),
])
def test_cg_gives_up_once_its_bound_cannot_reach_the_target_in_time(
        monkeypatch, n, constraint, seed, made):
    grid = GridDomain.create(PARAMS, 1.5, n, n, 0.01, 0.01,
                             origin=(-n * 0.005, 0.0))
    bound, operator = optimize._decrease_bound, _Problem.normal_operator
    trials, products = [], []

    def counting_operator(self, *args):
        product = operator(self, *args)

        def counted(v):
            products.append(None)
            return product(v)

        return counted

    def recording_bound(problem, *args):
        products.clear()
        b = bound(problem, *args)
        trials.append((problem.grid.nx, len(products), b < np.inf))
        return b

    monkeypatch.setattr(optimize, "_decrease_bound", recording_bound)
    monkeypatch.setattr(_Problem, "normal_operator", counting_operator)
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint.parse(constraint),
                                  seed=seed, max_iter=25)
    # every other trial is settled at x = 0 or by CG's first product
    assert [t for t in trials if t[1] > 1] == made
    assert (rep.stop_reason, rep.refinement_stop_reason) == ("floor", "floor")


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
def test_a_stationary_start_ends_on_its_floor_unfactored(monkeypatch,
                                                         constraint):
    # the zero field has no Gauss rows and no Codazzi residual, so g = 0:
    # the bound at x = 0 is 0, and the run ends with no product and no band
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    z = np.zeros((8, 8))

    def refused(*args):
        raise AssertionError("a product or a band was made")

    monkeypatch.setattr(optimize, "_BandedNormal", refused)
    monkeypatch.setattr(_Problem, "normal_operator", refused)
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint(constraint),
                                  init_field=ShapeField(grid, z, z, z),
                                  refine=False)
    assert (rep.stop_reason, rep.iterations) == ("floor", 0)
    assert (rep.factorizations, rep.rejected_steps) == (0, 1)


@pytest.mark.parametrize("seeded", [False, True])
def test_the_refinement_run_starts_from_the_refined_coarse_solution(
        monkeypatch, seeded):
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    init = family_seed(grid) if seeded else None
    runs = recorded_runs(monkeypatch)
    fld, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                    seed=2, max_iter=5, init_field=init)
    assert rep.iterations > 0
    (coarse, u_coarse, run), (fine, u_fine, fine_run) = runs
    assert (fine.grid.nx, fine.grid.ny) == (16, 16)
    first = coarse.pack(init) if seeded else coarse.random_init(2)
    assert np.array_equal(u_coarse, first)
    assert np.array_equal(u_fine,
                          fine.pack(optimize._refine_field(fld, fine.grid)))
    # the coarse run starts at 1e-3 and the 2x run at the damping the
    # coarse run ended with, which is below that cap here
    assert run.trials[0].lam == 1e-3
    assert run.lam < 1e-3
    assert fine_run.trials[0].lam == run.lam


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
    # damping and Gauss-Newton converges in 2 factorizations, and chord
    # steps
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    start = perturbed_family_start(grid)
    run = lambda refine: optimize_shape_field(
        grid, 0.0, TraceConstraint("none"), init_field=start, tol=1e-10,
        max_iter=30, refine=refine)[1]
    coarse, rep = run(False), run(True)
    assert rep.refinement_stop_reason == "converged"
    assert rep.refinement_history[-1][2] < 1e-10
    assert (coarse.factorizations, rep.factorizations) == (5, 7)


def test_a_perturbed_family_run_takes_chord_steps():
    # its last steps are near Newton's: the factor of a step with rho above
    # 0.75 that cut F 100x solves for the next gradients too, while F falls
    # 100x a step
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("none"))
    run = optimize._gauss_newton(
        problem, problem.pack(perturbed_family_start(grid)), 1e-10, 30, 1e-3)
    chords = [t for t in run.trials if t.kind == "chord" and t.accepted]
    assert run.stop_reason == "converged"
    assert len(chords) >= 2
    assert all(t.F_try < 0.01 * t.F for t in chords)
    # a chord trial follows only an accepted step that cut F 100x
    for t, after in zip(run.trials, run.trials[1:]):
        assert after.kind != "chord" or (t.accepted and t.F_try < 0.01 * t.F)
    # a chord step is an accepted iteration but not a factorization
    assert run.iterations == run.factorizations + len(chords)


def test_the_kept_factor_lives_in_the_band_until_it_is_refilled(monkeypatch):
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("none"))
    u = problem.random_init(1)
    rows = problem.gauss_rows(u)
    g = problem.gradient(rows, problem.residual(u))
    normal = _BandedNormal(problem)
    assert normal.factor is None
    d = _damped_step(normal, g, 1e-3, rows, None)
    # the factor is the band buffer itself, not a second band, and a chord
    # solve with it repeats the factored step's own solve
    assert np.shares_memory(normal.factor, normal.ab)
    assert np.array_equal(optimize._band_solve(normal, g), d)
    normal.assemble(1e-3, rows, None)
    assert normal.factor is None
    # a factorization that fails keeps none either
    _damped_step(normal, g, 1e-3, rows, None)

    def failing(*args, **kwargs):
        raise LinAlgError("1-th leading minor not positive definite")

    monkeypatch.setattr(optimize, "cholesky_banded", failing)
    with pytest.raises(LinAlgError):
        _damped_step(normal, g, 1e-3, rows, None)
    assert normal.factor is None


def test_a_minimal_floor_run_takes_no_chord_step():
    # its first step, from a random start, cuts F 100x with rho above 0.75,
    # so a chord trial follows, but on the large-residual floor that trial
    # does not cut F 100x, and no later step does either
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
    run = optimize._gauss_newton(problem, problem.random_init(3), 1e-8, 30,
                                 1e-3)
    assert run.stop_reason == "floor"
    assert any(t.kind == "chord" for t in run.trials)
    assert not any(t.kind == "chord" and t.accepted for t in run.trials)
    assert run.factorizations == 8


def test_a_failed_chord_trial_falls_through_to_a_factored_trial(monkeypatch):
    # a minimal run's chord trial fails, and is followed, in the same
    # iteration, by the factored trial the run makes without chord steps,
    # at the same damping (or by the floor proof that ends a run)
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))

    def solve():
        problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
        return optimize._gauss_newton(problem, problem.random_init(3), 1e-8,
                                      30, 1e-3)

    run = solve()
    monkeypatch.setattr(optimize, "_CHORD_RHO", np.inf)     # no factor kept
    plain = solve()
    factored = tuple(t for t in run.trials if t.kind != "chord")
    assert factored == plain.trials and len(factored) < len(run.trials)
    assert (run.stop_reason, run.lam) == (plain.stop_reason, plain.lam)
    assert np.array_equal(run.u, plain.u)
    for t, after in zip(run.trials, run.trials[1:]):
        if t.kind == "chord":
            assert not t.accepted
            assert (after.kind, after.lam, after.F) in [
                ("factored", t.lam, t.F), ("proved", t.lam, t.F)]


@pytest.mark.parametrize("constraint, fail_at, end", [
    ("none", None, ("converged", "chord")),
    ("minimal", None, ("floor", "proved")), ("minimal", 2, ("floor", "proved"))])
def test_the_trial_records_match_the_calls_made(monkeypatch, constraint,
                                                fail_at, end):
    # one factorization per factored or indefinite record, one band solve per
    # chord or factored record, and one residual per such record and one for
    # the start; every run makes a failed chord trial
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    u0 = (problem.pack(perturbed_family_start(grid)) if constraint == "none"
          else problem.random_init(3))
    calls = Counter()
    monkeypatch.setattr(optimize, "cholesky_banded", counted(
        calls, "factor", optimize.cholesky_banded, fail_at))
    monkeypatch.setattr(optimize, "cho_solve_banded", counted(
        calls, "solve", optimize.cho_solve_banded))
    monkeypatch.setattr(problem, "residual",
                        counted(calls, "residual", problem.residual))
    run = optimize._gauss_newton(problem, u0, 1e-10, 30, 1e-3)
    kinds = Counter(t.kind for t in run.trials)
    solves = kinds["chord"] + kinds["factored"]
    assert (calls["factor"], calls["solve"], calls["residual"]) == (
        kinds["factored"] + kinds["indefinite"], solves, solves + 1)
    assert kinds["indefinite"] == (fail_at is not None)
    assert any(t.kind == "chord" and not t.accepted for t in run.trials)
    assert (run.stop_reason, run.trials[-1].kind) == end


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(8, 10), st.integers(8, 10),
       st.sampled_from(["none", "minimal", "cmc:2"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from([None, 1, 2, 3]))
def test_the_trial_records_keep_the_lm_invariants(nx, ny, constraint, seed,
                                                  max_iter, fail_at):
    # over both grids of a run whose fail_at-th factorization fails
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    with pytest.MonkeyPatch.context() as patched:
        runs = recorded_runs(patched)
        patched.setattr(optimize, "cholesky_banded", counted(
            Counter(), "factor", optimize.cholesky_banded, fail_at))
        _, rep = optimize_shape_field(grid, 0.0,
                                      TraceConstraint.parse(constraint),
                                      seed=seed, max_iter=max_iter)
    for problem, u0, run in runs:
        r = problem.residual(u0)
        F = float(r @ r)
        for before, t in zip((None,) + run.trials, run.trials):
            assert t.F == F     # where the last accepted trial ended
            if t.accepted:
                assert t.F_try < (0.01 * t.F if t.kind == "chord" else t.F)
                F = t.F_try
            if t.kind == "chord":
                assert before.accepted and before.F_try < 0.01 * before.F
            if before is not None and before.kind in ("factored", "indefinite"):
                assert before.accepted or t.lam > before.lam
        kinds = [t.kind for t in run.trials]
        assert "proved" not in kinds[:-1]
        assert run.stop_reason == "floor" or "proved" not in kinds
    trials = [t for *_, run in runs for t in run.trials]
    assert rep.iterations == sum(t.accepted for t in runs[0][2].trials)
    assert rep.factorizations == sum(t.kind in ("factored", "indefinite")
                                     for t in trials)
    assert rep.rejected_steps == sum(not t.accepted and t.kind != "chord"
                                     for t in trials)


def test_a_worse_refined_start_carries_the_damping_too():
    # a random start's solution is rough, and refining it raises |r|; the 2x
    # run still begins at the coarse run's final damping
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
        "constraint=none", "seed=2", "iterations=12", "converged=true",
        "gauss_max=1.5288837462712479e-07", "gauss_l2=1.9419023394539803e-09",
        "codazzi_max=1.3650746201812614e-09",
        "codazzi_l2=2.2370712950250809e-11",
        "floor_l2=1.9420311904742275e-09", "floor_8x8=1.9420311904742275e-09",
        "floor_16x16=1.7030751881792695e-09", "stop_reason=converged",
        "factorizations=19", "rejected_steps=2",
        "stop_reason_16x16=converged"]


def test_cmc_zero_equals_minimal_bitwise(monkeypatch):
    # the same trials, at the same damping and F, to the same field
    grid = GridDomain.create(PARAMS, 1.5, 12, 12, 0.01, 0.01,
                             origin=(-0.06, 0.0))
    runs = recorded_runs(monkeypatch)
    _, r_min = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                    seed=5, max_iter=25, refine=False)
    _, r_cmc = optimize_shape_field(grid, 0.0, TraceConstraint("cmc", 0.0),
                                    seed=5, max_iter=25, refine=False)
    assert r_min.to_lines()[1:] == r_cmc.to_lines()[1:]
    (*_, run_min), (*_, run_cmc) = runs
    assert run_min.trials == run_cmc.trials
    assert np.array_equal(run_min.u, run_cmc.u)


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
@pytest.mark.parametrize("nx, ny", [(8, 12), (12, 8), (13, 9), (9, 40),
                                    (40, 9)])
def test_the_coloured_probe_equals_a_probe_per_unknown_bit_for_bit(
        constraint, nx, ny):
    # one unit field per unknown, h22 = -h11 with m = 2, against J_c read
    # off one colour class per component on an 8-row strip and tiled along
    # y; 13 x 9 has colour classes of unequal size on both axes, and 9 x 40
    # and 40 x 9 have many more rows or columns than the strip
    grid = GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    n = problem.m * problem.N
    expected = np.zeros((2 * (nx - 2) * (ny - 2), n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        h = problem._grid(e)
        h22 = h[2] if problem.m == 3 else -h[0]
        c1, c2 = codazzi_residual(ShapeField(grid, h[0], h[1], h22))
        expected[:, k] = problem.w * np.concatenate([c1.ravel(), c2.ravel()])
    jc = problem._jc
    assert np.array_equal(jc.toarray(), expected)
    # no stored zero, and the entries in CSR order
    assert jc.nnz == np.count_nonzero(expected)
    assert np.array_equal(np.lexsort((jc.col, jc.row)), np.arange(jc.nnz))


def probe_grid(nx, ny):
    """The acceptance suite's 32x32 contrast grid, its 2x refinement at
    64x64, or an nx x ny grid at h = 0.01 beside the origin."""
    if (nx, ny) == (32, 32):
        return GridDomain.create(PARAMS, 1.5, 32, 32, 0.01, 0.01,
                                 origin=(-0.16, 0.0))
    if (nx, ny) == (64, 64):
        return optimize._refine_grid(probe_grid(32, 32))
    return GridDomain.create(PARAMS, 1.5, nx, ny, 0.01, 0.01,
                             origin=(-0.04, 0.0))


def assert_same_coo(jc, ref):
    """jc's row, col and data arrays are ref's, bit for bit."""
    assert jc.shape == ref.shape
    for name in ("row", "col"):
        got, want = getattr(jc, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert jc.data.dtype == ref.data.dtype == np.float64
    assert np.array_equal(jc.data.view(np.int64), ref.data.view(np.int64))


@pytest.mark.parametrize("constraint", ["minimal", "none", "cmc:0.5"])
@pytest.mark.parametrize("nx, ny", [(32, 32), (64, 64), (8, 12), (12, 8),
                                    (13, 9), (9, 40), (40, 9)])
def test_the_strip_jacobian_equals_the_full_grid_probe_bit_for_bit(
        constraint, nx, ny):
    problem = _Problem(probe_grid(nx, ny), 0.0,
                       TraceConstraint.parse(constraint))
    assert_same_coo(problem._jc, full_grid_codazzi_jacobian(problem))


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
def test_the_strip_jacobian_keeps_each_column_s_own_entries(constraint):
    # mu = inf drops a column's 1/mu terms, mu' = 0 its centre term and
    # mu' = nan makes every entry nan: the columns keep different numbers
    # of entries, and the zeros go and the nans stay as in the full probe
    grid = probe_grid(13, 9)
    mu, dmu = grid.mu.copy(), grid.dmu.copy()
    mu[3], dmu[5], dmu[8] = np.inf, 0.0, np.nan
    problem = _Problem(replace(grid, mu=mu, dmu=dmu), 0.0,
                       TraceConstraint(constraint))
    jc = problem._jc
    assert len(np.unique(np.bincount(jc.row))) >= 4
    assert np.isnan(jc.data).any()
    assert_same_coo(jc, full_grid_codazzi_jacobian(problem))


@pytest.mark.parametrize("constraint", ["minimal", "none"])   # m = 2, 3
@pytest.mark.parametrize("nx, ny", [(64, 64), (9, 40), (40, 9)])
def test_the_codazzi_jacobian_is_probed_on_an_eight_row_strip(
        monkeypatch, constraint, nx, ny):
    # the coefficients depend on x alone: no probe needs the full grid
    grid = probe_grid(nx, ny)
    shapes = []

    def spy(fld):
        shapes.append({getattr(fld, n).shape for n in ("h11", "h12", "h22")})
        return codazzi_residual(fld)

    monkeypatch.setattr(optimize, "codazzi_residual", spy)
    problem = _Problem(grid, 0.0, TraceConstraint(constraint))
    assert 0 < len(shapes) <= 5 * problem.m
    assert all(s == {(nx, 8)} for s in shapes)


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
    problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
    run = lambda: optimize._gauss_newton(problem, problem.random_init(4),
                                         1e-8, 3, 1e-3)
    clean = run()
    assert clean.rejected_steps == 0

    monkeypatch.setattr(optimize, "cholesky_banded", counted(
        Counter(), "factor", optimize.cholesky_banded, fail_at=1))
    failed = run()
    # the failure is recorded, lam is multiplied by nu = 2, and the run goes on
    assert [(t.kind, t.lam) for t in failed.trials[:2]] == [
        ("indefinite", 1e-3), ("factored", 2e-3)]
    assert failed.rejected_steps == 1
    assert failed.factorizations == clean.factorizations + 1
    assert failed.iterations == clean.iterations == 3


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
