"""Exception types shared across the toolkit, and the one check of a count."""

import numbers


class ToolkitError(Exception):
    """Base class for all mindiv-specific errors."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidInputError(ToolkitError, ValueError):
    """Structurally invalid input: empty sample, bad mixing weight, ..."""


class SampleParseError(ToolkitError, ValueError):
    """A sample file contained an unparsable line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(message)
        self.line_number = line_number


class SingularMatrixError(ToolkitError, ArithmeticError):
    """A sensitivity matrix is singular; carries the offending matrix."""

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class DegenerateDataError(ToolkitError, ValueError):
    """The sample admits no nondegenerate estimate (e.g. zero spread)."""


class EvaluationError(ToolkitError, ArithmeticError):
    """An objective returned NaN inside its feasible region."""


class EstimationError(ToolkitError, RuntimeError):
    """An estimation run failed; carries context about the failing measure."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int, or an ``InvalidInputError`` naming ``name``
    unless it is an integer (not a bool, not a float) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
