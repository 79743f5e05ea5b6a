"""hcmu-lab: curvature profiles of singular non-CSC extremal conformal
metrics, exact integrability obstructions for minimal/CMC hypersurface
immersions into space forms, and frame-integrated realizations of the
immersions that do exist.

Importing the package loads no submodule.  Each exported name is looked up
in `_EXPORTS` on first access and its submodule imported then (PEP 562), so
the exact kernel (`algebra`, `ratpoly`) runs without numpy and only the
optimizer loads scipy.
"""

from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "algebra": ("Certificate", "CubicData", "MuElement",
                "certify_nonvanishing", "derive", "expand_mu_square",
                "obstruction_poly"),
    "errors": ("AlgebraConsistencyError", "ConfigError", "FormatError",
               "FrameDrift", "HcmuError", "InadmissibleParams",
               "NonFiniteIterate", "NumericalFailure", "PathLeavesDomain",
               "StepTooLarge"),
    "fields": ("GridDomain", "HolonomyDefect", "MinimalAnsatz", "ShapeField",
               "TraceConstraint", "codazzi_residual", "gauss_residual",
               "holonomy_defect", "integrate_minimal_ansatz",
               "transport_ansatz"),
    "optimize": ("ResidualReport", "optimize_shape_field"),
    "profile": ("CurvatureProfile", "HcmuParams", "curvature_at",
                "curvature_residual", "implicit_x_of_K",
                "solve_curvature_ode", "validate_params"),
    "ratpoly": ("RationalPoly",),
    "realize": ("DiagonalFamily", "FrameState", "Mesh", "export_mesh",
                "integrate_frame", "parse_mesh", "solve_codazzi_family",
                "verify_immersion"),
}
_SUBMODULE = {name: sub for sub, names in _EXPORTS.items() for name in names}
_SUBMODULE.update((sub, sub) for sub in _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def __getattr__(name):
    sub = _SUBMODULE.get(name)
    if sub is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{sub}")
    value = module if name == sub else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
