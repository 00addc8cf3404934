"""The package's four exception classes, and the one path its arguments enter by:
every number and array, complex density matrices included, goes through :func:`_reals`."""

import math
import operator

import numpy as np

__all__ = ["DrfsimError", "DomainError", "ConvergenceError", "InternalConsistencyError"]


class DrfsimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DrfsimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


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


def _holds_bool(values) -> bool:
    """True if ``values`` is no ndarray and holds a bool: numpy reads [True, 0.5] as floats."""
    return not isinstance(values, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat)


def _reals(name: str, values, dtype=float) -> np.ndarray:
    """``values``, a number or an array of them, as an array of ``dtype``,
    float or complex (itself if it is one), else a :class:`DomainError`
    naming ``name``: a string such as "0.5" is refused, not parsed, and
    neither a bool (alone or in a list) nor an object such as a Fraction is a number."""
    array = np.asarray(values)
    got = np.dtype(bool) if _holds_bool(values) else array.dtype
    if got.kind not in "iuf" + np.dtype(dtype).kind:
        what = "real" if dtype is float else "real or complex"
        raise DomainError(f"{name} must be {what}, got dtype {got}")
    return array.astype(dtype, copy=False)


def _real(name: str, value) -> float:
    """``value`` as a float if it is one real number, else a :class:`DomainError` naming it."""
    array = _reals(name, value)
    if array.ndim:
        raise DomainError(f"{name} must be a single number, got shape {array.shape}")
    return float(array)


def _check_polar(name: str, angles):
    """``angles``, a float or a float array, if every angle lies in [0, pi];
    else a :class:`DomainError` naming ``name`` and the first angle outside
    (NaN is outside)."""
    inside = np.logical_and(0.0 <= angles, angles <= math.pi)
    if not inside.all():
        raise DomainError(f"{name} must lie in [0, pi], got {np.extract(~inside, angles)[0]}")
    return angles


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


def _check_record(name: str, value, cls: type):
    """``value`` if it is a ``cls``, else a :class:`DomainError` naming ``name`` and ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_finite(name: str, values) -> None:
    """A :class:`DomainError` naming ``name`` unless every entry of the array
    ``values`` is finite.  min and max propagate NaN and reach any inf, so no
    mask the size of ``values`` is formed."""
    if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
        raise DomainError(f"{name} must be finite (it holds nan or inf)")
