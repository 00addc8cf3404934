"""Exception types shared across the package, and its count-argument check."""

import operator

__all__ = ["DrfsimError", "DomainError", "AccuracyError", "ConvergenceError",
           "InternalConsistencyError"]


class DrfsimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DrfsimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(DrfsimError, RuntimeError):
    """A grid is too coarse for the requested accuracy."""


class ConvergenceError(DrfsimError, RuntimeError):
    """An iterative solver exceeded its iteration cap.

    The best iterate found so far is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InternalConsistencyError(DrfsimError, RuntimeError):
    """Two independent routes to the same quantity disagree beyond tolerance."""


def _check_count(name: str, value, low: int = 0) -> int:
    """``value`` as an int if it is an integer >= ``low``, else a
    :class:`DomainError` naming ``name``: a float count (2.5, nan, inf) is
    refused rather than failing later with a ``TypeError``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or not (low <= count):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return count
