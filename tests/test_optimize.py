import math

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


def perturbed_family_start(grid):
    """The diagonal family's field on a 16x16 grid plus seeded noise of
    about 1e-2 in every component."""
    fam = family_seed(grid)
    noise = 1e-2 * np.random.default_rng(0).standard_normal((3, 16, 16))
    return ShapeField(grid, fam.h11 + noise[0], fam.h12 + noise[1],
                      fam.h22 + noise[2])


def recorded_events(monkeypatch, problem):
    """The events of a run on ``problem``, in order: ("factor",) for each
    band Cholesky, ("solve",) for each band solve, ("residual", u, F) for
    each residual evaluated and ("iterate", u) where an iteration starts."""
    events = []
    factor, solve = optimize.cholesky_banded, optimize.cho_solve_banded
    residual, gauss_rows = problem.residual, problem.gauss_rows

    def factoring(*args, **kwargs):
        events.append(("factor",))
        return factor(*args, **kwargs)

    def solving(*args, **kwargs):
        events.append(("solve",))
        return solve(*args, **kwargs)

    def evaluating(u):
        r = residual(u)
        events.append(("residual", u.copy(), float(r @ r)))
        return r

    def iterating(u):
        events.append(("iterate", u.copy()))
        return gauss_rows(u)

    monkeypatch.setattr(optimize, "cholesky_banded", factoring)
    monkeypatch.setattr(optimize, "cho_solve_banded", solving)
    monkeypatch.setattr(problem, "residual", evaluating)
    monkeypatch.setattr(problem, "gauss_rows", iterating)
    return events


def trials_of(events, u_end):
    """Each step tried in a run, as [kind, F, F_try, accepted]: kind is
    "chord" for a band solve that no factorization precedes, else
    "factored"; a trial is accepted when the next iteration, or the run's
    end ``u_end``, starts from its iterate."""
    trials, F, kind, u_try = [], None, None, None
    for event in events + [("iterate", u_end)]:
        if event[0] == "factor":
            kind = "factored"
        elif event[0] == "solve":
            kind = kind or "chord"
        elif event[0] == "residual" and F is None:
            F = event[2]    # the initial field's
        elif event[0] == "residual":
            trials.append([kind, F, event[2], False])
            kind, u_try = None, event[1]
        elif u_try is not None and np.array_equal(event[1], u_try):
            trials[-1][3] = True
            F, u_try = trials[-1][2], None
    return trials


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
    # on the floor; 9 when only the bound 2 |g|^2 / lam was tried, 10 with
    # Gauss-Newton, 12 factoring that trial and 33 walking the damping up
    # to its cap
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
    iterates, trials = [], []
    gauss_rows = problem.gauss_rows
    step = optimize._damped_step

    def recording_rows(u):
        iterates.append(u.copy())
        trials.append([])
        return gauss_rows(u)

    def recording_step(normal, g, lam, rows, second):
        trials[-1].append((g.copy(), lam, rows, second))
        return step(normal, g, lam, rows, second)

    monkeypatch.setattr(problem, "gauss_rows", recording_rows)
    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    run = optimize._gauss_newton(problem, problem.random_init(seed), 1e-8,
                                 30, 1e-3)
    assert run.stop_reason == stop
    assert run.factorizations == sum(map(len, trials)) == 8
    assert run.rejected_steps == 1

    def target(u):
        r = problem.residual(u)
        return optimize._CERTIFY_EPS * float(r @ r)

    for u, made in zip(iterates, trials):
        for g, lam, rows, second in made:
            assert optimize._decrease_bound(problem, rows, second, g, lam,
                                            target(u)) == np.inf
    # the run ends on a trial it did not factor, at the damping it returns,
    # whose decrease CG bounds under eps F / 2
    u = iterates[-1]
    r = problem.residual(u)
    rows = gauss_rows(u)
    g = problem.gradient(rows, r)
    assert trials[-1] == []
    bound = optimize._decrease_bound(problem, rows, problem.second_order(r),
                                     g, run.lam, target(u))
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


def test_a_certified_refinement_run_builds_no_band(monkeypatch):
    # the 2x run of the 16x16 minimal case starts on its floor: CG proves the
    # first trial's decrease under one ulp of F, so that run factors nothing
    # and never allocates its band
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    band, solve = optimize._BandedNormal, optimize._gauss_newton
    bound, operator = optimize._decrease_bound, _Problem.normal_operator
    built, runs, trials, products = [], [], [], []

    def counting_band(problem):
        built.append(problem.grid.nx)
        return band(problem)

    def recording_solve(problem, *args):
        runs.append(solve(problem, *args))
        return runs[-1]

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
    monkeypatch.setattr(optimize, "_gauss_newton", recording_solve)
    monkeypatch.setattr(optimize, "_decrease_bound", recording_bound)
    monkeypatch.setattr(_Problem, "normal_operator", recording_operator)
    _, rep = optimize_shape_field(grid, 0.0, TraceConstraint("minimal"),
                                  seed=3, max_iter=30)
    assert built == [16]
    assert [(run.stop_reason, run.factorizations) for run in runs] == [
        ("floor", 8), ("floor", 0)]
    assert rep.refinement_stop_reason == "floor"
    assert rep.factorizations == 8
    # CG gives up after one product on each of the 8 factored trials; the
    # coarse run's last trial is bounded at x = 0, with no product
    counts = [len(made) for *_, made in trials]
    assert counts[:-1] == [1] * 8 + [0] and counts[-1] > 1
    # the certified trial: its bound is the explicit-residual bound at the
    # last vector B was applied to, it is under one ulp of F, and it bounds
    # the decrease of the step that factoring would have taken
    problem, (rows, second, g, lam, target), b, made = trials[-1]
    assert problem.grid.nx == 32
    x, Bx = made[-1]
    z = g - Bx
    explicit = 2.0 * (float(g @ x) + float(x @ z) + float(z @ z) / lam)
    assert abs(b - explicit) <= 1e-12 * explicit
    r = problem.residual(runs[-1].u)
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
    # damping and Gauss-Newton converges in 2 factorizations, and chord
    # steps, where starting again from 1e-3 took 7
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


def test_a_perturbed_family_run_takes_chord_steps(monkeypatch):
    # its last steps are near Newton's: the factor of a step with rho above
    # 0.75 that cut F 100x solves for the next gradients too, while F falls
    # 100x a step
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("none"))
    events = recorded_events(monkeypatch, problem)
    run = optimize._gauss_newton(
        problem, problem.pack(perturbed_family_start(grid)), 1e-10, 30, 1e-3)
    trials = trials_of(events, run.u)
    chords = [t for t in trials if t[0] == "chord" and t[3]]
    assert run.stop_reason == "converged"
    assert len(chords) >= 2
    assert all(F_try < 0.01 * F for _, F, F_try, _ in chords)
    # a chord trial follows only an accepted step that cut F 100x
    for (_, F, F_try, kept), (kind, *_) in zip(trials, trials[1:]):
        assert kind == "factored" or (kept and F_try < 0.01 * F)
    # a chord step is an accepted iteration but not a factorization
    assert run.iterations == sum(t[3] for t in trials)
    factors = events.count(("factor",))
    assert run.factorizations == factors < events.count(("solve",))


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


def test_a_minimal_floor_run_takes_no_chord_step(monkeypatch):
    # its first step, from a random start, cuts F 100x with rho above 0.75,
    # so a chord trial follows, but on the large-residual floor that trial
    # does not cut F 100x, and no later step does either
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
    events = recorded_events(monkeypatch, problem)
    run = optimize._gauss_newton(problem, problem.random_init(3), 1e-8, 30,
                                 1e-3)
    trials = trials_of(events, run.u)
    assert run.stop_reason == "floor"
    assert any(kind == "chord" for kind, *_ in trials)
    assert not any(kind == "chord" and kept for kind, _, _, kept in trials)
    assert run.factorizations == events.count(("factor",)) == 8


def test_a_failed_chord_trial_falls_through_to_a_factored_trial(monkeypatch):
    # a minimal run's chord trial fails, and is followed, in the same
    # iteration, by the factored trial the run makes without chord steps,
    # at the same damping (or by the floor proof that ends a run)
    grid = GridDomain.create(PARAMS, 1.5, 16, 16, 0.01, 0.01,
                             origin=(-0.08, 0.0))
    step = optimize._damped_step
    lams = []

    def recording_step(normal, g, lam, *rest):
        lams[-1].append(lam)
        return step(normal, g, lam, *rest)

    def solve(chord_rho):
        problem = _Problem(grid, 0.0, TraceConstraint("minimal"))
        lams.append([])
        with monkeypatch.context() as patched:
            patched.setattr(optimize, "_CHORD_RHO", chord_rho)
            events = recorded_events(patched, problem)
            run = optimize._gauss_newton(problem, problem.random_init(3),
                                         1e-8, 30, 1e-3)
        return run, events

    monkeypatch.setattr(optimize, "_damped_step", recording_step)
    plain, plain_events = solve(np.inf)     # no factor is kept
    run, events = solve(optimize._CHORD_RHO)
    assert ("solve",) not in [e for i, e in enumerate(plain_events)
                              if plain_events[i - 1] != ("factor",)]
    assert run[1:] == plain[1:] and np.array_equal(run.u, plain.u)
    assert lams[1] == lams[0]
    chords = [i for i, e in enumerate(events)
              if e == ("solve",) and events[i - 1] != ("factor",)]
    assert chords
    for i in chords:
        # the trial's residual, then a factorization or the end of the run
        assert events[i + 1][0] == "residual"
        assert events[i + 2:i + 3] in ([("factor",)], [])


def test_a_worse_refined_start_carries_the_damping_too():
    # a random start's solution is rough, and refining it raises |r|; the 2x
    # run still begins at the coarse run's final damping (starting afresh
    # from 1e-3 also takes 19 factorizations, to floor_16x16 = 8.3e-10)
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
