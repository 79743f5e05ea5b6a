"""Input and consistency guards that no other test reaches.

One row per guard: a call, the exception it must raise and a fragment of
its message.  The two tests after the table reach runtime gates by breaking
one collaborator with monkeypatch.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hcmu_lab import optimize, profile
from hcmu_lab.algebra import (CubicData, certificate_from_lines,
                              certify_nonvanishing)
from hcmu_lab.errors import (AlgebraConsistencyError, FormatError,
                             NonFiniteIterate, PathLeavesDomain, StepTooLarge)
from hcmu_lab.fields import (GridDomain, ShapeField, TraceConstraint,
                             holonomy_defect, integrate_minimal_ansatz,
                             transport_ansatz)
from hcmu_lab.profile import (closed_form_agreement,
                              conformal_curvature_residual, curvature_at,
                              solve_curvature_ode, validate_params)
from hcmu_lab.ratpoly import RationalPoly, count_roots_between, isolate_roots
from hcmu_lab.realize import (Mesh, family_codazzi_gap, family_shape_field,
                              minimal_attempt_inconsistency,
                              recover_fundamental_forms, sample_codazzi_family,
                              transport_frame)

PARAMS = validate_params(2, 1)
XS = 1e-3 * np.arange(-20, 21)


def grid(n=8, origin=(0.0, 0.0)):
    return GridDomain.create(PARAMS, 1.5, n, n, 1e-3, 1e-3, origin=origin)


def family():
    return sample_codazzi_family(PARAMS, 1.5, XS, 1e-3, 0.0, 1.0)


def zeros(shape=(8, 8)):
    return np.zeros(shape)


GUARDS = [
    # fields
    pytest.param(lambda: GridDomain.create(PARAMS, 1.5, 8, 8, 0.0, 1e-3),
                 ValueError, "grid spacings must be positive",
                 id="fields-spacing"),
    pytest.param(lambda: TraceConstraint("umbilic"), ValueError,
                 "unknown constraint kind", id="fields-constraint-kind"),
    pytest.param(lambda: TraceConstraint("cmc", math.inf), ValueError,
                 "mean curvature H must be finite", id="fields-cmc-inf"),
    pytest.param(lambda: ShapeField(grid(), zeros((8, 9)), zeros(), zeros()),
                 ValueError, "h11 has shape (8, 9), grid wants (8, 8)",
                 id="fields-shape"),
    pytest.param(lambda: integrate_minimal_ansatz(grid(), 3.0, 0j),
                 ValueError, "h0 must be nonzero", id="fields-h0"),
    pytest.param(lambda: holonomy_defect(grid(), 3.0, 1.0, (4, 0, 2, 4)),
                 ValueError, "loop corners must satisfy",
                 id="fields-loop-corners"),
    pytest.param(lambda: transport_ansatz(grid(), 3.0, 1.0,
                                          [(0, 0), (2.5, 0)]),
                 PathLeavesDomain, "path nodes must be pairs of integers",
                 id="fields-float-node"),
    # profile
    pytest.param(lambda: curvature_at(PARAMS, 2.5, 0.0), ValueError,
                 "anchor K0 = 2.5 outside (1.0, 2.0)", id="profile-anchor"),
    pytest.param(lambda: closed_form_agreement(
                     solve_curvature_ode(PARAMS, 1.5, (-0.01, 0.01)), tol=0.0),
                 ValueError, "no node passes the oracle conditioning gate",
                 id="profile-oracle-gate"),
    pytest.param(lambda: conformal_curvature_residual(zeros(), zeros((8, 9)),
                                                      0.1, 0.1),
                 ValueError, "phi and K grids must have identical shape",
                 id="profile-conformal-shape"),
    # realize
    pytest.param(lambda: sample_codazzi_family(PARAMS, 1.5, XS + 5e-4, 1e-3,
                                               0.0, 1.0),
                 ValueError, "does not contain the anchor x = 0",
                 id="realize-anchor"),
    pytest.param(lambda: family_shape_field(family(), grid(origin=(5e-4, 0))),
                 ValueError, "grid columns do not sit on family sample points",
                 id="realize-columns"),
    pytest.param(lambda: minimal_attempt_inconsistency(PARAMS, 1.0, XS, 1.5),
                 ValueError, "need c > K on the range",
                 id="realize-minimal-seed"),
    pytest.param(lambda: family_codazzi_gap(family(), x_range=(1.0, 2.0)),
                 ValueError, "x_range contains no family sample",
                 id="realize-gap-range"),
    pytest.param(lambda: recover_fundamental_forms(Mesh(
                     zeros((16, 3)), np.zeros((0, 3), np.int64),
                     zeros((16, 3)), 4, 4, 0.1, 0.1, 0.0, 0.0, 0.0)),
                 ValueError, "mesh too small for the 4th-order recovery",
                 id="realize-small-mesh"),
    pytest.param(lambda: transport_frame(family(), grid(),
                                         [(0, 0), (0, 0, 5)]),
                 PathLeavesDomain, "path nodes must be pairs of integers",
                 id="realize-triple-node"),
    # algebra
    # CubicData(k1, k2, k3, p1, p0) of (2, 1) is (2, 1, -3, 28/3, -8)
    pytest.param(lambda: CubicData(F(2), F(1), F(-2), F(28, 3), F(-8)),
                 AlgebraConsistencyError, "k3 != -(k1 + k2)",
                 id="algebra-cubic-k3"),
    pytest.param(lambda: CubicData(F(2), F(1), F(-3), F(28, 3), F(-7)),
                 AlgebraConsistencyError, "P(2) != 0", id="algebra-cubic-p0"),
    # the cusp (2, -1) is (2, -1, -1, 4, 8/3): P(2) = 1/3 with p0 = 3
    pytest.param(lambda: CubicData(F(2), F(-1), F(-1), F(4), F(3)),
                 AlgebraConsistencyError, "P(2) != 0",
                 id="algebra-cusp-cubic-p0"),
    pytest.param(lambda: certificate_from_lines(
                     ["verdict=no-root", "interval=0 1", "root_count=1"]),
                 FormatError, "root_count disagrees with root_interval lines",
                 id="algebra-root-count"),
    pytest.param(lambda: certificate_from_lines(
                     ["verdict=no-root", "interval=1 2", "root_count=1",
                      "root_interval=1 3/2"]),
                 FormatError, "verdict disagrees with root_interval lines",
                 id="algebra-no-root-with-roots"),
    pytest.param(lambda: certificate_from_lines(
                     ["verdict=roots-isolated", "interval=1 2",
                      "root_count=0"]),
                 FormatError, "verdict disagrees with root_interval lines",
                 id="algebra-roots-isolated-without-roots"),
    pytest.param(lambda: certify_nonvanishing(RationalPoly.one(), (1, 1)),
                 ValueError, "degenerate interval", id="algebra-interval"),
    # ratpoly
    pytest.param(lambda: RationalPoly.zero().leading, ValueError,
                 "zero polynomial has no leading coefficient",
                 id="ratpoly-leading"),
    pytest.param(lambda: RationalPoly.x() ** -1, ValueError,
                 "negative power of a polynomial", id="ratpoly-power"),
    pytest.param(lambda: count_roots_between(RationalPoly.x(), 1, 0),
                 ValueError, "need a < b", id="ratpoly-count-interval"),
    pytest.param(lambda: count_roots_between(RationalPoly.zero(), 0, 1),
                 ValueError, "zero polynomial has no root count",
                 id="ratpoly-count-zero"),
    pytest.param(lambda: isolate_roots(RationalPoly.x(), 1, 1),
                 ValueError, "need a < b", id="ratpoly-isolate-interval"),
    pytest.param(lambda: isolate_roots(RationalPoly.zero(), 0, 1),
                 ValueError, "cannot isolate roots of the zero polynomial",
                 id="ratpoly-isolate-zero"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_each_guard_raises_its_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_a_non_finite_trial_residual_stops_the_optimizer(monkeypatch):
    # the initial residual is finite; every trial point's is not
    residual = optimize._Problem.residual
    calls = []

    def nan_after_first(self, u):
        calls.append(1)
        r = residual(self, u)
        return r if len(calls) == 1 else np.full_like(r, np.nan)

    monkeypatch.setattr(optimize._Problem, "residual", nan_after_first)
    with pytest.raises(NonFiniteIterate,
                       match="^optimizer diverged to non-finite residual$"):
        optimize.optimize_shape_field(grid(), 0.0, TraceConstraint("none"),
                                      seed=1, refine=False)


def test_a_step_that_lets_K_fall_breaks_monotone_growth(monkeypatch):
    # each step moves K against its flow, by far less than the bracket
    monkeypatch.setattr(profile, "rk4_step", lambda f, y, h: y - 1e-3 * h)
    with pytest.raises(StepTooLarge, match="broke monotone growth of K"):
        solve_curvature_ode(PARAMS, 1.5, (-0.01, 0.01), 1e-3)
