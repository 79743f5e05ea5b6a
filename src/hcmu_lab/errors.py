"""Shared exception types and the process exit codes.

Each `HcmuError` carries the exit code of the CLI process it ends and the
label that prefixes its ``error:`` line: 1 for malformed input
(`FormatError`, `ConfigError`), 2 for inadmissible parameters and 3 for a
numerical failure or any other workbench error.  `EXIT_OK` ends a run, and
`EXIT_USAGE` a ValueError or OSError from outside the workbench's types.
"""

EXIT_OK = 0
EXIT_USAGE = 1


class HcmuError(Exception):
    """Base class for all workbench errors."""

    exit_code = 3
    label = ""


class InadmissibleParams(HcmuError):
    """Extremal-value pair fails the admissibility inequalities.

    ``violated`` names the inequality that failed, e.g. ``"K1 > 0"``.
    """

    exit_code = 2
    label = "inadmissible parameters: "

    def __init__(self, message: str, violated: str):
        super().__init__(message)
        self.violated = violated


class NumericalFailure(HcmuError):
    """A numerical procedure could not meet its contract."""

    label = "numerical failure: "


class StepTooLarge(NumericalFailure):
    """ODE step violated monotonicity or the open-interval bracket."""


class FrameDrift(NumericalFailure):
    """Integrated frame lost orthonormality beyond tolerance."""


class NonFiniteIterate(NumericalFailure):
    """Optimizer produced a non-finite residual or step."""


class PathLeavesDomain(HcmuError):
    """A grid path references nodes outside the domain."""


class AlgebraConsistencyError(HcmuError):
    """An exact reduction that must close did not (upstream corruption)."""


class FormatError(HcmuError):
    """Malformed serialized data; carries the offending line number."""

    exit_code = EXIT_USAGE

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigError(FormatError):
    """Bad configuration file entry."""
