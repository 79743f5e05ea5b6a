import math

import numpy as np
import pytest
from scipy.integrate import quad

from hcmu_lab import profile
from hcmu_lab.errors import FormatError, InadmissibleParams, StepTooLarge
from hcmu_lab.profile import (
    closed_form_agreement,
    conformal_curvature_residual,
    curvature_at,
    curvature_residual,
    implicit_x_of_K,
    read_profile_csv,
    solve_curvature_ode,
    validate_params,
    write_profile_csv,
)


def test_validate_classifies_conical_and_cusp():
    assert validate_params(2, 1).kind == "conical"
    assert validate_params(1, -0.5).kind == "cusp"


def test_validate_rejects_with_named_inequality():
    with pytest.raises(InadmissibleParams) as err:
        validate_params(1, -2)
    assert err.value.violated == "K2 > -(K1 + K2)"
    with pytest.raises(InadmissibleParams) as err:
        validate_params(-1, -2)
    assert err.value.violated == "K1 > 0"
    with pytest.raises(InadmissibleParams) as err:
        validate_params(1, 3)
    assert err.value.violated == "K1 > K2"


def test_profile_monotone_and_bracketed():
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-4, 4), 1e-3)
    assert np.all(prof.Ks > params.k2) and np.all(prof.Ks < params.k1)
    assert np.all(np.diff(prof.Ks) >= 0)
    # strictly increasing away from the saturated tails
    core = np.abs(prof.xs) < 3.0
    assert np.all(np.diff(prof.Ks[core]) > 0)
    assert prof.Ks[np.argmin(np.abs(prof.xs))] == 1.5


def test_profile_requires_interior_start():
    params = validate_params(2, 1)
    with pytest.raises(ValueError):
        solve_curvature_ode(params, 2.0, (-1, 1), 1e-3)


def test_huge_step_is_rejected():
    params = validate_params(2, 1)
    with pytest.raises(StepTooLarge):
        solve_curvature_ode(params, 1.5, (-4, 4), 2.0)


def test_a_step_that_rounds_an_end_to_no_step_is_rejected():
    params = validate_params(2, 1)
    for x_range, step in (((-5, 5), 1e300), ((-5, 0.4), 1.0),
                          ((-0.4, 5), 1.0)):
        with pytest.raises(ValueError, match="to no step"):
            solve_curvature_ode(params, 1.5, x_range, step)
    # an end at x = 0 asks for no step
    prof = solve_curvature_ode(params, 1.5, (0, 0.6), 0.5)
    assert list(prof.xs) == [0.0, 0.5]


def test_a_step_count_above_the_cap_is_rejected(monkeypatch):
    params = validate_params(2, 1)
    for step in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="more than 1000000 steps"):
            solve_curvature_ode(params, 1.5, (-5, 5), step)
    # n_neg + n_pos at the cap passes and one more fails
    monkeypatch.setattr(profile, "MAX_PROFILE_STEPS", 100)
    assert solve_curvature_ode(params, 1.5, (-0.5, 0.5), 0.01).xs.size == 101
    with pytest.raises(ValueError, match="more than 100 steps"):
        solve_curvature_ode(params, 1.5, (-0.5, 0.51), 0.01)


def test_a_nan_step_or_range_end_is_rejected_by_name():
    params = validate_params(2, 1)
    with pytest.raises(ValueError, match="step must be positive"):
        solve_curvature_ode(params, 1.5, (-5, 5), math.nan)
    for x_range in ((math.nan, 5), (-5, math.nan)):
        with pytest.raises(ValueError, match="x_range must contain 0"):
            solve_curvature_ode(params, 1.5, x_range, 1e-3)


def test_gauge_identity_along_profile():
    # dK/dx = mu^2/2 checked by central differences
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-2, 2), 1e-3)
    dK = (prof.Ks[2:] - prof.Ks[:-2]) / (2 * prof.step)
    rhs = 0.5 * params.mu_sq(prof.Ks[1:-1])
    assert np.max(np.abs(dK - rhs)) < 5e-6


def test_implicit_normalization_and_derivative():
    params = validate_params(2, 1)
    assert implicit_x_of_K(params, 1.5, 1.5) == 0.0
    # inverse-function derivative dx/dK = 2/mu^2 by central difference
    for K in (1.2, 1.5, 1.8):
        eps = 1e-6
        fd = (implicit_x_of_K(params, 1.5, K + eps)
              - implicit_x_of_K(params, 1.5, K - eps)) / (2 * eps)
        exact = 2.0 / params.mu_sq(K)
        assert abs(fd - exact) / abs(exact) < 1e-6


def test_implicit_matches_adaptive_quadrature():
    params = validate_params(2, 1)
    val, _ = quad(lambda K: 2.0 / params.mu_sq(K), 1.5, 1.9,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(implicit_x_of_K(params, 1.5, 1.9) - val) < 1e-10


def test_implicit_rejects_out_of_range():
    params = validate_params(2, 1)
    with pytest.raises(ValueError):
        implicit_x_of_K(params, 1.5, 2.5)
    with pytest.raises(ValueError):
        implicit_x_of_K(params, 1.5, 1.0)


def test_cusp_closed_form_and_quadrature():
    params = validate_params(1, -0.5)
    k0 = 0.3
    val, _ = quad(lambda K: 2.0 / params.mu_sq(K), k0, 0.8,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(implicit_x_of_K(params, k0, 0.8) - val) < 1e-10
    prof = solve_curvature_ode(params, k0, (-3, 3), 1e-3)
    rep = closed_form_agreement(prof)
    assert rep.max_dev_masked < 1e-8


def test_ode_matches_closed_form_where_conditioned():
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-3, 3), 1e-3)
    rep = closed_form_agreement(prof)
    assert rep.max_dev_masked < 1e-8
    assert rep.masked_nodes > 0.9 * rep.total_nodes


def test_rk4_order_by_richardson():
    # Steps are chosen where truncation still dominates rounding; at 1e-3
    # the propagated error is already at the noise floor of doubles.
    params = validate_params(2, 1)
    x_star = 3.0
    k_exact = curvature_at(params, 1.5, x_star)
    errs = []
    for h in (8e-3, 4e-3):
        prof = solve_curvature_ode(params, 1.5, (0.0, 4.0), h)
        i = int(round(x_star / h))
        errs.append(abs(prof.Ks[i] - k_exact))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_equilibrium_approach_rate():
    # K1 - K(x) ~ exp(-|P'(K1)|/2 x); fit the rate on a log scale
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (0.0, 6.0), 1e-3)
    x1, x2 = 3.0, 5.0
    i1, i2 = int(x1 / prof.step), int(x2 / prof.step)
    d1 = params.k1 - prof.Ks[i1]
    d2 = params.k1 - prof.Ks[i2]
    rate = (math.log(d1) - math.log(d2)) / (x2 - x1)
    expected = abs(params.mu_sq_prime(params.k1)) / 2.0
    assert abs(rate - expected) / expected < 0.1


def test_inversion_roundtrip():
    params = validate_params(2, 1)
    for x in (-2.5, -0.3, 0.0, 1.2, 2.9):
        K = curvature_at(params, 1.5, x)
        assert abs(implicit_x_of_K(params, 1.5, K) - x) < 1e-10


def test_a_nan_x_gives_nan():
    for params, k0 in ((validate_params(2, 1), 1.5),
                       (validate_params(2, -1), 0.5)):
        assert math.isnan(curvature_at(params, k0, math.nan))
        K = curvature_at(params, k0, np.array([-np.inf, math.nan, 0.0, np.inf]))
        assert math.isnan(K[1]) and not np.isnan(K[[0, 2, 3]]).any()
        assert K[2] == curvature_at(params, k0, 0.0)


def test_round_sphere_curvature_residual_second_order():
    def residual(n, h):
        xs = h * np.arange(n) - 0.5 * h * (n - 1)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        phi = np.log(2.0 / (1.0 + X ** 2 + Y ** 2))
        res = conformal_curvature_residual(phi, np.ones_like(phi), h, h)
        return np.abs(res).max()

    r1 = residual(41, 0.01)
    r2 = residual(81, 0.005)
    assert r1 < 1e-3
    assert 3.5 < r1 / r2 < 4.5


def test_profile_curvature_residual_and_order():
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-2, 2), 1e-3)
    r1 = curvature_residual(prof, 1e-2)
    r2 = curvature_residual(prof, 5e-3)
    assert r1.max_residual < 1e-3
    assert 3.5 < r1.max_residual / r2.max_residual < 4.5


def test_curvature_residual_grid_guards():
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-2, 2), 1e-3)
    with pytest.raises(ValueError):
        curvature_residual(prof, 1.5e-3)  # not a multiple of the step
    with pytest.raises(ValueError):
        curvature_residual(prof, 1e-2, ny=3)
    with pytest.raises(ValueError):
        conformal_curvature_residual(np.zeros((4, 8)), np.zeros((4, 8)), 0.1, 0.1)


def test_profile_csv_roundtrip_is_bit_identical(tmp_path):
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-1, 1), 1e-2)
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    table = read_profile_csv(path)
    for mine, theirs in zip((prof.xs, prof.Ks, prof.mus, prof.phis), table):
        assert np.array_equal(mine, theirs)
    # and the rendering really is decimal text with a header
    first = path.read_text().splitlines()
    assert first[0] == "x,K,mu,phi"


def test_profile_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,K,mu,phi\n1,2,3\n")
    with pytest.raises(FormatError) as err:
        read_profile_csv(path)
    assert "line 2" in str(err.value)
