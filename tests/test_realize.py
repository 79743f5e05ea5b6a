import math
from fractions import Fraction

import numpy as np
import pytest

from hcmu_lab.algebra import CubicData
from hcmu_lab.errors import FormatError, FrameDrift, PathLeavesDomain
from hcmu_lab.fields import GridDomain, codazzi_residual, gauss_residual
from hcmu_lab.profile import (
    curvature_at,
    solve_curvature_ode,
    validate_params,
)
from hcmu_lab.ratpoly import RationalPoly
from hcmu_lab import realize
from hcmu_lab.realize import (
    FrameTables,
    ImmersionReport,
    _initial_frame,
    _k2_of_K,
    Mesh,
    ambient_inner,
    ambient_signature,
    angle_defect_curvature,
    export_mesh,
    family_codazzi_gap,
    family_shape_field,
    family_tables,
    integrate_frame,
    integrate_frame_tables,
    minimal_attempt_inconsistency,
    parse_mesh,
    recover_fundamental_forms,
    sample_codazzi_family,
    solve_codazzi_family,
    transport_frame,
    verify_immersion,
)

PARAMS = validate_params(2, 1)


def make_family(c=0.0, k2_init=1.0, span=1.0):
    params = validate_params(2, 1, c=c)
    prof = solve_curvature_ode(params, 1.5, (-span, span), 1e-3)
    return params, solve_codazzi_family(prof, c, k2_init)


def test_family_gauss_identity_exact():
    _, fam = make_family()
    assert np.max(np.abs(fam.k1s * fam.k2s - fam.Ks)) < 1e-13


def test_family_codazzi_gap_small():
    _, fam = make_family()
    assert family_codazzi_gap(fam, (-0.3, 0.3)) < 1e-8


def test_family_feeds_compatibility_residuals():
    # step chosen so the second-order stencil truncation sits below 1e-8
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-0.05, 0.05), 1e-4)
    fam = solve_codazzi_family(prof, 0.0, 1.0)
    grid = GridDomain.create(params, 1.5, 201, 9, 1e-4, 1e-4,
                             origin=(-0.01, 0.0))
    fld = family_shape_field(fam, grid)
    assert np.max(np.abs(gauss_residual(fld, 0.0))) < 1e-8
    c1, c2 = codazzi_residual(fld)
    assert np.max(np.abs(c1)) < 1e-8
    assert np.max(np.abs(c2)) < 1e-8


def test_family_truncates_at_zero_crossing():
    # with c = 0 and k2(0) = 1 the principal curvature k2 hits zero at
    # finite x; the family must stop there and say so
    _, fam = make_family(span=1.0)
    assert fam.truncated
    assert fam.x_max < 1.0
    assert np.all(fam.k2s > 0)


@pytest.mark.parametrize("k1,k2,k0,c,k2_init", [
    (2, 1, 1.5, 0.0, 1.0), (2, 1, 1.5, 1.0, -1.0), (2, 1, 1.5, -1.0, 0.85),
    # here curvature_at(params, k0, 0.0) is one ulp below k0
    (2, -0.25, 0.875, 0.0, 1.0),
])
def test_family_curvature_comes_from_the_oracle(k1, k2, k0, c, k2_init):
    params = validate_params(k1, k2, c=c)
    prof = solve_curvature_ode(params, k0, (-1.0, 1.0), 1e-3)
    fam = solve_codazzi_family(prof, c, k2_init)
    anchor = int(np.argmin(np.abs(fam.xs)))
    assert fam.Ks[anchor] == k0
    oracle = curvature_at(params, k0, fam.xs)
    off = np.arange(fam.xs.size) != anchor
    assert fam.Ks[off].tobytes() == oracle[off].tobytes()


@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
@pytest.mark.parametrize("k1,k2,k0", [(2, 1, 1.5), (2, -1, 0.5),
                                      (3, 0.5, 1.8)])
def test_family_tables_equal_an_inversion_on_the_half_lattice(k1, k2, k0, c):
    # the reference inverts K on x0 + k hx/2 itself, from the family's
    # anchor sample, and takes k2 from the first integral through it
    params = validate_params(k1, k2, c=c)
    fam = sample_codazzi_family(params, k0, 1e-3 * np.arange(-1000, 1001),
                                1e-3, c, 1.0)
    anchor_K = fam.Ks[int(np.argmin(np.abs(fam.xs)))]
    for nx, hx, x0 in [(21, 2e-3, -0.02), (9, 7e-3, -0.03)]:
        grid = GridDomain.create(params, k0, nx, 8, hx, hx, origin=(x0, 0.0))
        tables = family_tables(fam, grid)
        K = curvature_at(params, anchor_K,
                         x0 + 0.5 * hx * np.arange(2 * nx - 1))
        ref_k2 = _k2_of_K(params, c, anchor_K, fam.k2_init, K)
        ref = FrameTables(params.mu(K), 0.25 * params.mu_sq_prime(K),
                          (K - c) / ref_k2, ref_k2)
        for name in ("mu", "s", "k1", "k2"):
            assert (getattr(tables, name).tobytes()
                    == getattr(ref, name).tobytes()), (nx, name)


@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
def test_family_tables_read_the_grid_curvature_and_keep_the_first_integral(c):
    params, fam = make_family(c=c)
    nx, hx, x0 = 21, 2e-3, -0.02
    grid = GridDomain.create(params, 1.5, nx, 8, hx, hx, origin=(x0, 0.0))
    tables = family_tables(fam, grid)
    # k2 across the lattice keeps P (k2^2 - (K - c)) + Q constant, where
    # P = mu^2 and Q' = P
    K, k2 = grid.K_half, tables.k2
    P = params.mu_sq(K)
    Q = -K ** 4 / 3.0 + 0.5 * params.p1 * K ** 2 + params.p0 * K
    terms = np.stack([P * k2 ** 2, P * (K - c), Q])
    first_integral = terms[0] - terms[1] + terms[2]
    assert np.ptp(first_integral) <= 1e-12 * np.max(np.abs(terms))


# Sample indices x / 1e-3 of the family's ends on the profile over (-1, 1),
# step 1e-3, for the benchmark's realize draws k2_init = 0.85, 0.86, ..., 1.15
# (K1, K2, K0 = 2, 1, 1.5), as the RK4 march of k2 found them.
_BENCH_ENDS = {
    0.0: ([-646, -663, -681, -700, -719, -739, -761, -783, -807, -833, -860,
           -889, -921, -955, -993] + [-1000] * 16,
          [524, 532, 540, 547, 555, 564, 572, 580, 589, 597, 606, 615, 624,
           634, 643, 653, 663, 674, 684, 695, 706, 717, 729, 741, 754, 766,
           780, 794, 808, 823, 838]),
    1.0: ([-1000] * 31, [1000] * 31),
    -1.0: ([-392, -399, -406, -413, -420, -427, -435, -442, -450, -458, -466,
            -474, -482, -491, -499, -508, -517, -526, -535, -544, -554, -563,
            -573, -584, -594, -605, -616, -627, -638, -650, -662],
           [404, 409, 414, 419, 425, 430, 435, 440, 446, 451, 457, 462, 468,
            473, 479, 484, 490, 496, 502, 508, 514, 520, 526, 532, 539, 545,
            551, 558, 565, 571, 578]),
}


def test_family_tables_reject_a_grid_on_another_profile():
    params, fam = make_family()
    grid = GridDomain.create(params, 1.5, 9, 8, 1e-3, 1e-3,
                             origin=(-0.004, 0.0))
    assert family_tables(fam, grid).k2.size == 17
    other_k0 = GridDomain.create(params, 1.4, 9, 8, 1e-3, 1e-3,
                                 origin=(-0.004, 0.0))
    other_k2 = GridDomain.create(validate_params(2, 0.5), 1.5, 9, 8, 1e-3,
                                 1e-3, origin=(-0.004, 0.0))
    for other in (other_k0, other_k2):
        with pytest.raises(ValueError, match="different curvature profiles"):
            family_tables(fam, other)
    beyond = GridDomain.create(params, 1.5, 9, 8, 1e-3, 1e-3,
                               origin=(fam.x_max, 0.0))
    with pytest.raises(ValueError, match="leaves the family range"):
        family_tables(fam, beyond)


def test_the_frame_layer_inverts_no_curvature(monkeypatch):
    # integrate, transport and verify read K from a grid, which
    # GridDomain.create inverts through fields.curvature_at
    params, fam = make_family(c=1.0)
    grid = GridDomain.create(params, 1.5, 21, 11, 1e-3, 1e-3,
                             origin=(-0.01, 0.0))

    def no_inversion(*args):
        raise AssertionError("the frame layer reads K from the grid")

    monkeypatch.setattr(realize, "curvature_at", no_inversion)
    mesh = integrate_frame(fam, grid)
    frame = transport_frame(fam, grid, [(0, 0), (20, 0), (20, 10)])
    assert np.linalg.norm(frame.X - mesh.vertices[-1]) < 1e-12
    assert verify_immersion(mesh, fam).metric_rel_err < 1e-6


def test_family_range_is_pinned_on_the_readme_and_benchmark_inputs():
    # (c, k2_init, profile half-width, x_min / 1e-3, x_max / 1e-3)
    pad = 0.05 + 101 * 1e-3 + 0.5  # the README realize grid's default range
    cases = [(0.0, 1.0, pad, -651, 651), (1.0, 1.0, pad, -651, 651),
             (-1.0, 1.0, pad, -508, 484)]
    # the benchmark's converge draws
    cases += [(0.0, 1.0, 1.0, -1000, 653), (0.0, -1.0, 1.0, -1000, 653),
              (0.0, 2.0, 1.0, -1000, 1000), (0.0, 0.5, 1.0, -271, 302)]
    for c, (los, his) in _BENCH_ENDS.items():
        cases += [(c, (85 + n) / 100, 1.0, lo, hi)
                  for n, (lo, hi) in enumerate(zip(los, his))]
    wrong = []
    for c, k2_init, span, lo, hi in cases:
        params = validate_params(2, 1, c=c)
        prof = solve_curvature_ode(params, 1.5, (-span, span), 1e-3)
        fam = solve_codazzi_family(prof, c, k2_init)
        n_end = round(span / 1e-3)
        expect = (lo, hi, (lo, hi) != (-n_end, n_end))
        got = (round(fam.x_min / 1e-3), round(fam.x_max / 1e-3), fam.truncated)
        if got != expect:
            wrong.append((c, k2_init, got, expect))
    assert len(cases) == 100 and not wrong


def test_family_rejects_zero_init():
    params = validate_params(2, 1)
    prof = solve_curvature_ode(params, 1.5, (-1, 1), 1e-2)
    with pytest.raises(ValueError):
        solve_codazzi_family(prof, 0.0, 0.0)


@pytest.mark.parametrize("k2_init", [1e-10, 1e-7, 1e-3, 1.0, -0.5])
def test_the_family_keeps_k2_init_at_its_anchor_to_the_bit(k2_init):
    xs = 1e-3 * np.arange(-600, 601)
    fam = sample_codazzi_family(PARAMS, 1.5, xs, 1e-3, 0.0, k2_init)
    anchor = int(np.argmin(np.abs(fam.xs)))
    assert fam.xs[anchor] == 0.0
    assert fam.k2s[anchor] == k2_init


def test_a_one_sample_family_is_rejected_not_indexed():
    # k2_init = 1e-7 is too small for the first integral to resolve off
    # the anchor, so the family keeps only its anchor sample
    xs = 1e-3 * np.arange(-600, 601)
    fam = sample_codazzi_family(PARAMS, 1.5, xs, 1e-3, 0.0, 1e-7)
    assert fam.xs.size == 1
    grid = GridDomain.create(PARAMS, 1.5, 8, 8, 1e-3, 1e-3)
    with pytest.raises(ValueError, match="one sample"):
        family_shape_field(fam, grid)
    with pytest.raises(ValueError, match="leaves the family range"):
        family_tables(fam, grid)
    with pytest.raises(ValueError, match="too short"):
        family_codazzi_gap(fam)


def test_umbilic_seed_leaves_the_umbilic_locus():
    # k1 = k2 = sqrt(K - c) at the anchor is a zero of the Codazzi rate,
    # but the umbilic locus itself moves, so the family departs from it
    params, fam = make_family(k2_init=math.sqrt(1.5))
    sel = np.abs(fam.xs) <= 0.3
    gap = np.abs(fam.k1s - fam.k2s)[sel]
    i0 = np.argmin(np.abs(fam.xs))
    assert abs(fam.k1s[i0] - fam.k2s[i0]) < 1e-12
    assert np.max(gap) > 1e-3


def test_minimal_attempt_defect_matches_exact_algebra():
    params = validate_params(2, 1, c=3.0)
    xs = np.linspace(-0.4, 0.4, 161)
    _, Ks, defect = minimal_attempt_inconsistency(params, 3.0, xs, 1.5)
    # exact route: substituting the Codazzi rate and the squared principal
    # curvature turns the three-term defect into the pure polynomial P/2
    cd = CubicData.from_extremes(2, 1)
    P = cd.poly()
    c = Fraction(3)
    K = RationalPoly.x()
    t = RationalPoly.constant(c) - K
    dP = P.derivative()
    expr = -dP * t + P * Fraction(1, 2) + dP * t
    assert expr == P * Fraction(1, 2)
    expect = 0.5 * params.mu_sq(Ks)
    assert np.max(np.abs(defect - expect)) < 1e-12
    # bounded away from zero on [K2 + d, K1 - d]
    sel = (Ks >= 1.05) & (Ks <= 1.95)
    floor = 0.5 * min(params.mu_sq(1.05), params.mu_sq(1.95))
    assert np.min(defect[sel]) >= floor * 0.99


def sphere_tables(n):
    m = 2 * n - 1
    one = np.ones(m)
    return FrameTables(one, np.zeros(m), one, one)


def test_unit_sphere_sanity():
    n, h = 25, 0.05
    mesh = integrate_frame_tables(sphere_tables(n), n, n, h, h, 0.0, 0.0, 0.0)
    centers = mesh.vertices + mesh.normals
    assert np.ptp(centers, axis=0).max() < 1e-8
    radii = np.linalg.norm(mesh.vertices - centers.mean(axis=0), axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8


def test_unit_sphere_is_flagged_cmc():
    n, h = 25, 0.02
    mesh = integrate_frame_tables(sphere_tables(n), n, n, h, h, 0.0, 0.0, 0.0)
    forms = recover_fundamental_forms(mesh)
    H_cols = forms.H.mean(axis=1)
    assert np.max(np.abs(H_cols - 1.0)) < 1e-9
    assert H_cols.max() - H_cols.min() < 1e-6  # the cmc flag condition


def test_frame_drift_is_detected_not_corrected():
    # a step far beyond the curvature scale must fail loudly
    n = 8
    with pytest.raises(FrameDrift):
        integrate_frame_tables(sphere_tables(n), n, n, 3.0, 3.0, 0.0, 0.0,
                               0.0)


def node_by_node_frames(tables, nx, ny, hx, hy, c):
    """Reference march: one RK4 step per node, the frame ODE written out."""

    def rk4(f, S, h):
        s1 = f(0, S)
        s2 = f(1, S + 0.5 * h * s1)
        s3 = f(1, S + 0.5 * h * s2)
        s4 = f(2, S + h * s3)
        return S + (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)

    def along_x(k):
        def f(stage, S):
            mu, k1 = tables.mu[k + stage], tables.k1[k + stage]
            X, e1, e2, xi = S
            return np.array([mu * e1, mu * k1 * xi - c * mu * X, 0 * e2,
                             -mu * k1 * e1])
        return f

    def along_y(i):
        def f(stage, S):
            mu, s, k2 = tables.mu[2 * i], tables.s[2 * i], tables.k2[2 * i]
            X, e1, e2, xi = S
            return np.array([mu * e2, s * e2,
                             -s * e1 + mu * k2 * xi - c * mu * X,
                             -mu * k2 * e2])
        return f

    sig = ambient_signature(c, 3 if c == 0 else 4)
    frames = np.empty((nx, ny, 4, sig.size))
    drift = np.empty((nx, ny))
    spine = _initial_frame(c).as_matrix()
    for i in range(nx):
        if i > 0:
            spine = rk4(along_x(2 * (i - 1)), spine, hx)
        S = spine
        for j in range(ny):
            if j > 0:
                S = rk4(along_y(i), S, hy)
            frames[i, j] = S
            gram = np.array([[ambient_inner(a, b, sig) for b in S] for a in S])
            dev = np.abs(gram - np.diag([1 / c if c else 0, 1, 1, 1]))
            drift[i, j] = dev[1:, 1:].max() if c == 0 else dev.max()
    return frames, drift


@pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
def test_lockstep_march_matches_the_node_by_node_reference(c):
    params, fam = make_family(c=c)
    nx, ny, h = 21, 11, 1e-3
    grid = GridDomain.create(params, 1.5, nx, ny, h, h, origin=(-0.01, 0.0))
    tables = family_tables(fam, grid)
    mesh = integrate_frame_tables(tables, nx, ny, h, h, -0.01, 0.0, c)
    frames, _ = node_by_node_frames(tables, nx, ny, h, h, c)
    # the same RK4 as per-cell propagators: a few ulps of O(1) entries
    flat = frames.reshape(nx * ny, 4, -1)
    assert np.max(np.abs(mesh.vertices - flat[:, 0])) < 1e-13
    assert np.max(np.abs(mesh.normals - flat[:, 3])) < 1e-13


def test_frame_drift_names_the_first_node_in_row_major_order():
    n, h = 8, 3.0
    _, drift = node_by_node_frames(sphere_tables(n), n, n, h, h, 0.0)
    i, j = np.argwhere(drift > 1e-6)[0]
    with pytest.raises(FrameDrift, match=rf"at node \({i}, {j}\) exceeds"):
        integrate_frame_tables(sphere_tables(n), n, n, h, h, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("c,k2_init", [(0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)])
def test_realization_fidelity(c, k2_init):
    params, fam = make_family(c=c, k2_init=k2_init)
    grid = GridDomain.create(params, 1.5, 101, 41, 1e-3, 1e-3,
                             origin=(-0.05, 0.0))
    mesh = integrate_frame(fam, grid)
    rep = verify_immersion(mesh, fam)
    assert rep.metric_rel_err < 1e-6
    assert rep.offdiag_err < 1e-6
    assert rep.k1_rel_err < 1e-6 and rep.k2_rel_err < 1e-6
    assert rep.weingarten_spread < 1e-6
    assert rep.mean_curv_range > 1e-3  # never CMC on the family
    assert not rep.cmc_flag
    if c != 0:
        assert rep.quadric_drift < 1e-7
        assert mesh.vertices.shape[1] == 4
    else:
        assert mesh.vertices.shape[1] == 3


def test_path_independence_of_the_frame():
    params, fam = make_family()
    grid = GridDomain.create(params, 1.5, 101, 41, 1e-3, 1e-3,
                             origin=(-0.05, 0.0))
    f1 = transport_frame(fam, grid, [(0, 0), (80, 0), (80, 30)])
    f2 = transport_frame(fam, grid, [(0, 0), (0, 30), (80, 30)])
    assert np.linalg.norm(f1.X - f2.X) < 1e-6
    with pytest.raises(PathLeavesDomain):
        transport_frame(fam, grid, [(0, 0), (5, 5)])


def test_a_path_from_the_origin_may_be_tuples_lists_or_an_array():
    params, fam = make_family(c=1.0)
    grid = GridDomain.create(params, 1.5, 11, 9, 1e-3, 1e-3,
                             origin=(-0.005, 0.0))
    path = [(0, 0), (10, 0), (10, 8), (3, 8)]
    frames = [transport_frame(fam, grid, nodes).as_matrix()
              for nodes in (path, [list(n) for n in path], np.array(path))]
    assert all(np.array_equal(f, frames[0]) for f in frames[1:])
    with pytest.raises(PathLeavesDomain, match="must start at the grid origin"):
        transport_frame(fam, grid, np.array([[1, 0], [10, 0]]))


def test_the_verify_report_writes_its_nine_keys_in_order():
    values = [0.1, 2e-7, 1 / 3, 4.5e-300, 0.0, 1e300, None, -0.25, 7.0]
    keys = ["metric_rel_err", "offdiag_err", "k1_rel_err", "k2_rel_err",
            "weingarten_spread", "mean_curv_range", "cmc_flag",
            "quadric_drift", "gauss_defect_rel_err"]
    texts = ["0.10000000000000001", "1.9999999999999999e-07",
             "0.33333333333333331", "4.5e-300", "0",
             "1.0000000000000001e+300", None, "-0.25", "7"]
    for flag in (True, False):
        values[6], texts[6] = flag, str(flag).lower()
        lines = ImmersionReport(*values).to_lines()
        assert lines == [f"{k}={t}" for k, t in zip(keys, texts)]


def test_angle_defect_tracks_curvature():
    params, fam = make_family()
    grid = GridDomain.create(params, 1.5, 41, 41, 1e-2, 1e-2,
                             origin=(-0.2, 0.0))
    mesh = integrate_frame(fam, grid)
    K_disc, valid = angle_defect_curvature(mesh)
    K_ref = np.repeat(grid.K, grid.ny)
    rel = np.abs(K_disc[valid] - K_ref[valid]) / np.abs(K_ref[valid])
    assert np.max(rel) < 0.02


def test_frame_orthonormality_drift_budget(monkeypatch):
    params, fam = make_family()
    grid = GridDomain.create(params, 1.5, 101, 41, 1e-3, 1e-3,
                             origin=(-0.05, 0.0))
    # tightening the gate well below the contract shows the actual drift
    monkeypatch.setattr(realize, "FRAME_TOL", 1e-10)
    mesh = integrate_frame(fam, grid)
    assert mesh.vertices.shape == (101 * 41, 3)


def test_integrability_gate_rejects_corrupt_family():
    params, fam = make_family()
    anchor = int(np.argmin(np.abs(fam.xs)))
    fam.k2s[anchor + 2] += 1e-2  # corrupt a sample inside the grid span
    grid = GridDomain.create(params, 1.5, 11, 8, 1e-3, 1e-3,
                             origin=(-0.005, 0.0))
    with pytest.raises(ValueError):
        integrate_frame(fam, grid)


def test_integrability_gate_rejects_a_nan_gap():
    params, fam = make_family()
    anchor = int(np.argmin(np.abs(fam.xs)))
    fam.k2s[anchor + 2] = np.nan
    grid = GridDomain.create(params, 1.5, 11, 8, 1e-3, 1e-3,
                             origin=(-0.005, 0.0))
    with pytest.raises(ValueError, match="family Codazzi gap nan exceeds"):
        integrate_frame(fam, grid)


def test_a_nan_frame_fails_the_drift_gate():
    # a nan drift is not <= FRAME_TOL: the first nan node is reported
    n, h = 8, 0.02
    tables = sphere_tables(n)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FrameDrift, match=r"drift nan at node \(0, 1\)"):
            integrate_frame_tables(tables, n, n, h, 1e300, 0.0, 0.0, 0.0)


def test_mesh_roundtrip_bit_identical(tmp_path):
    params, fam = make_family(c=1.0)
    grid = GridDomain.create(params, 1.5, 9, 9, 1e-3, 1e-3,
                             origin=(-0.004, 0.0))
    mesh = integrate_frame(fam, grid)
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, path)
    back = parse_mesh(path)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert np.array_equal(mesh.normals, back.normals)
    assert np.array_equal(mesh.faces, back.faces)
    assert (back.nx, back.ny, back.hx, back.hy) == (9, 9, 1e-3, 1e-3)
    # verification on identical data is identical
    r1 = verify_immersion(mesh, fam)
    r2 = verify_immersion(back, fam)
    assert r1.to_lines() == r2.to_lines()


def test_empty_mesh_roundtrip(tmp_path):
    dim = 3
    empty = Mesh(np.zeros((0, dim)), np.zeros((0, 3), dtype=np.int64),
                 np.zeros((0, dim)), 0, 0, 0.1, 0.1, 0.0, 0.0, 0.0)
    path = tmp_path / "empty.txt"
    export_mesh(empty, path)
    back = parse_mesh(path)
    assert back.vertices.shape[0] == 0
    assert back.faces.shape[0] == 0


def test_mesh_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# nx,ny,hx,hy = 1,1,0.1,0.1\n# origin = 0,0\n# c = 0\n"
                    "v 0 0 zero\n")
    with pytest.raises(FormatError) as err:
        parse_mesh(path)
    assert "line 4" in str(err.value)
    path.write_text("# nx,ny,hx,hy = 1,1,0.1,0.1\n# origin = 0,0\n# c = 0\n"
                    "v 0 0 0\nf 1 2 9\n")
    with pytest.raises(FormatError) as err:
        parse_mesh(path)
    assert "line 5" in str(err.value)


def test_lorentzian_signature_helpers():
    sig = ambient_signature(-1.0, 4)
    assert list(sig) == [-1.0, 1.0, 1.0, 1.0]
    X = np.array([1.0, 0.0, 0.0, 0.0])
    assert ambient_inner(X, X, sig) == -1.0
