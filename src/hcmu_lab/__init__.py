"""hcmu-lab: curvature profiles of singular non-CSC extremal conformal
metrics, exact integrability obstructions for minimal/CMC hypersurface
immersions into space forms, and frame-integrated realizations of the
immersions that do exist."""

from .algebra import (
    Certificate,
    CubicData,
    MuElement,
    certify_nonvanishing,
    derive,
    expand_mu_square,
    obstruction_poly,
)
from .errors import (
    AlgebraConsistencyError,
    ConfigError,
    FormatError,
    FrameDrift,
    HcmuError,
    InadmissibleParams,
    NonFiniteIterate,
    NumericalFailure,
    PathLeavesDomain,
    StepTooLarge,
)
from .fields import (
    GridDomain,
    HolonomyDefect,
    MinimalAnsatz,
    ShapeField,
    TraceConstraint,
    codazzi_residual,
    gauss_residual,
    holonomy_defect,
    integrate_minimal_ansatz,
    transport_ansatz,
)
from .optimize import ResidualReport, optimize_shape_field
from .profile import (
    CurvatureProfile,
    HcmuParams,
    curvature_at,
    curvature_residual,
    implicit_x_of_K,
    solve_curvature_ode,
    validate_params,
)
from .ratpoly import RationalPoly
from .realize import (
    DiagonalFamily,
    FrameState,
    Mesh,
    export_mesh,
    integrate_frame,
    parse_mesh,
    solve_codazzi_family,
    verify_immersion,
)

__version__ = "0.1.0"
