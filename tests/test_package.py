import importlib

import pytest

import hcmu_lab

# Every name the package exported when its __init__ imported them eagerly.
_PUBLIC = {
    "algebra": ["Certificate", "CubicData", "MuElement",
                "certify_nonvanishing", "derive", "expand_mu_square",
                "obstruction_poly"],
    "errors": ["AlgebraConsistencyError", "ConfigError", "FormatError",
               "FrameDrift", "HcmuError", "InadmissibleParams",
               "NonFiniteIterate", "NumericalFailure", "PathLeavesDomain",
               "StepTooLarge"],
    "fields": ["GridDomain", "HolonomyDefect", "MinimalAnsatz", "ShapeField",
               "TraceConstraint", "codazzi_residual", "gauss_residual",
               "holonomy_defect", "integrate_minimal_ansatz",
               "transport_ansatz"],
    "optimize": ["ResidualReport", "optimize_shape_field"],
    "profile": ["CurvatureProfile", "HcmuParams", "curvature_at",
                "curvature_residual", "implicit_x_of_K", "solve_curvature_ode",
                "validate_params"],
    "ratpoly": ["RationalPoly"],
    "realize": ["DiagonalFamily", "FrameState", "Mesh", "export_mesh",
                "integrate_frame", "parse_mesh", "solve_codazzi_family",
                "verify_immersion"],
}


def test_public_names_resolve_to_their_submodule_objects():
    for sub, names in _PUBLIC.items():
        module = importlib.import_module(f"hcmu_lab.{sub}")
        for name in names:
            exec(f"from hcmu_lab import {name} as value", namespace := {})
            assert namespace["value"] is getattr(module, name)
            assert getattr(hcmu_lab, name) is getattr(module, name)
            assert name in dir(hcmu_lab) and name in hcmu_lab.__all__


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        hcmu_lab.not_a_name
    with pytest.raises(ImportError):
        exec("from hcmu_lab import not_a_name", {})


def test_submodule_names_resolve_through_the_table():
    for sub in _PUBLIC:
        module = importlib.import_module(f"hcmu_lab.{sub}")
        assert hcmu_lab.__getattr__(sub) is module
