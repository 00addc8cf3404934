"""Exception types shared across the package."""


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
