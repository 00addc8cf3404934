"""Exception types shared across the package, and its argument checks."""

import math
import operator

import numpy as np

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


def _index(value) -> int | None:
    """``value`` as an int if it is an integer (a Python or numpy int, not a bool), else None."""
    if isinstance(value, bool):  # operator.index(True) is 1
        return None
    try:
        return operator.index(value)  # int() would truncate 2.5, and fail on nan
    except TypeError:
        return None


def _reals(name: str, values) -> np.ndarray:
    """``values``, a number or an array of them, as a float array (itself if
    it is one), else a :class:`DomainError` naming ``name``: a string such
    as "0.5" is refused, not parsed, and a bool is not a number."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _real(name: str, value) -> float:
    """``value`` as a float if it is one real number, else a :class:`DomainError` naming it."""
    array = _reals(name, value)
    if array.ndim:
        raise DomainError(f"{name} must be a single number, got shape {array.shape}")
    return float(array)


def _check_count(name: str, value, low: int = 0) -> int:
    """``value`` as an int if it is an integer >= ``low``, else a
    :class:`DomainError` naming ``name``: a float count (2.5, nan, inf) is
    refused rather than failing later with a ``TypeError``."""
    count = _index(value)
    if count is None or not (low <= count):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


def _check_member(name: str, value, allowed: tuple) -> int:
    """``value`` as an int if it is an integer in ``allowed``, else a
    :class:`DomainError` naming ``name``: 1.0 is refused as 2.5 is, since a
    float is not an index."""
    member = _index(value)
    if member not in allowed:
        raise DomainError(f"{name} must be one of {allowed}, got {value!r}")
    return member


def _check_finite(name: str, values) -> None:
    """A :class:`DomainError` naming ``name`` unless every entry of the array
    ``values`` is finite.  min and max propagate NaN and reach any inf, so no
    mask the size of ``values`` is formed."""
    if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
        raise DomainError(f"{name} must be finite (it holds nan or inf)")
