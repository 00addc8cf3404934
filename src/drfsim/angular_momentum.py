"""Exact angular-momentum coupling primitives for a spin-j frame and one qubit.

All quantum numbers are carried as doubled integers (``twice_j``,
``twice_m``) so that half-integer spins stay exact.  Coupling arithmetic is
done on integers (via :class:`fractions.Fraction`); floating point enters
only at the final square root.

Conventions
-----------
* Frame basis states are indexed by m ascending, m = -j ... +j.
* The qubit basis is ``|0>`` (spin up, aligned with the reference axis) and
  ``|1>`` (spin down), labelled by the index a in {0, 1}: a = 0 is s = +1/2.
* The coupled branch J = j + c/2 is labelled by the measurement outcome
  c in {+1, -1} (:data:`OUTCOMES`), as in the Kraus keys (a, b, c).
* Condon-Shortley phases are used throughout.  All
  physically observable quantities downstream are quadratic in the
  coefficients and therefore convention independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _check_count, _check_member, _check_polar, _index, _real, _reals

__all__ = [
    "SpinLabel",
    "CGCoefficient",
    "cg_coefficient",
    "projector_element",
    "coherent_populations",
    "coherent_columns",
]


@dataclass(frozen=True)
class SpinLabel:
    """A frame size 2j >= 1, accepted wherever a size is; inside the package a
    size is the plain int 2j.  A frame is read through both branches
    J = j +- 1/2, and J = j - 1/2 needs 2j >= 1."""

    twice_j: int

    def __post_init__(self):
        object.__setattr__(self, "twice_j", _check_count("twice_j", self.twice_j, 1))

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j space."""
        return self.twice_j + 1


def _check_frame(j) -> int:
    """A frame size, a SpinLabel or an int read as 2j, as the checked int 2j >= 1."""
    return j.twice_j if isinstance(j, SpinLabel) else _check_count("twice_j", j, 1)


OUTCOMES = (+1, -1)  # outcome c of a measurement: the total-J branch J = j + c/2


class CGCoefficient(NamedTuple):
    """A coupling coefficient represented exactly as sign * sqrt(square)."""

    sign: int
    square: Fraction

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.square)


def _check_magnetic(twice_j: int, twice_m: int, what: str = "m") -> int:
    index = _index(twice_m)  # int() would truncate 2m = 1.9 to 1
    if index is None:
        raise DomainError(f"2{what}={twice_m!r} must be an integer for 2j={twice_j}")
    if (index - twice_j) % 2 != 0:
        raise DomainError(
            f"2{what}={index} has wrong parity for 2j={twice_j} (must match 2j mod 2)"
        )
    if abs(index) > twice_j:
        raise DomainError(f"|{what}| exceeds j: 2{what}={index}, 2j={twice_j}")
    return index


def cg_coefficient(j, twice_m: int, a: int, c: int) -> CGCoefficient:
    """Clebsch-Gordan coefficient <J, M | j, m; 1/2, s_a> for j (x) 1/2 coupling.

    Parameters
    ----------
    j : SpinLabel or int
        Frame spin (an int is read as 2j).
    twice_m : int
        Doubled magnetic number 2m of the frame state.
    a : int
        Qubit index: 0 for the component s = +1/2, 1 for s = -1/2.
    c : int
        Outcome: +1 selects J = j + 1/2, -1 selects J = j - 1/2.

    Returns
    -------
    CGCoefficient
        Exact signed square root; ``.value`` gives the float.  Coefficients
        whose coupled M = m + s falls outside the branch's range are exactly
        zero, which the closed coupling table produces naturally.

    Notes
    -----
    The closed table for j (x) 1/2 (Condon-Shortley phases), with
    q = 2j + 1:

    ====  ====  ==================
    c     a     coefficient
    ====  ====  ==================
    +1    0     +sqrt((j+m+1)/q)
    +1    1     +sqrt((j-m+1)/q)
    -1    0     -sqrt((j-m)/q)
    -1    1     +sqrt((j+m)/q)
    ====  ====  ==================
    """
    tj = _check_frame(j)
    twice_m = _check_magnetic(tj, twice_m)
    a, c = _check_member("a", a, (0, 1)), _check_member("c", c, OUTCOMES)
    # the table's numerators over 2q, 2(j+m+1) ... 2(j+m), are 2j + c (2 s_a) 2m + 1 + c
    square = Fraction(tj + c * (1 - 2 * a) * twice_m + 1 + c, 2 * (tj + 1))
    return CGCoefficient(-1 if (c, a) == (-1, 0) and square else 1, square)


def projector_element(j, c: int, a: int, b: int, twice_m_row: int, twice_m_col: int) -> float:
    """Matrix element <j, m_row| <a| Pi_c |b> |j, m_col> of a total-J projector.

    Pi_c projects H_j (x) H_{1/2} onto the total-spin J = j + c/2 multiplet;
    resolving Pi_c = sum_M |J,M><J,M| through the coupling table gives the
    element as a product of two coefficients.  It vanishes unless
    m_row + s_a = m_col + s_b (conservation of total M), so the (a=b)
    operators are diagonal in m and the (a != b) operators shift m by one.
    """
    tj = _check_frame(j)
    c = _check_member("c", c, OUTCOMES)
    a, b = _check_member("a", a, (0, 1)), _check_member("b", b, (0, 1))
    twice_m_row = _check_magnetic(tj, twice_m_row, "m_row")
    twice_m_col = _check_magnetic(tj, twice_m_col, "m_col")
    if twice_m_row - 2 * a != twice_m_col - 2 * b:  # 2 s_a = 1 - 2a
        return 0.0
    left, right = cg_coefficient(tj, twice_m_row, a, c), cg_coefficient(tj, twice_m_col, b, c)
    return left.value * right.value


def coherent_populations(j, theta: float) -> np.ndarray:
    """Populations of a spin coherent state tilted by polar angle theta.

    The state is the maximal-weight state |j, j> rotated by ``theta`` about
    an equatorial axis.  Its populations over m = -j ... +j (ascending) are
    binomial,

        p_k = C(2j, k) [cos^2(theta/2)]^k [sin^2(theta/2)]^(2j - k),

    with k = j + m.  This is the one column of :func:`coherent_columns` at
    ``theta``.

    Parameters
    ----------
    j : SpinLabel or int
        Frame spin (an int is read as 2j).
    theta : float
        Polar angle in radians, 0 <= theta <= pi.

    Returns
    -------
    numpy.ndarray
        Length 2j+1 vector of non-negative populations summing to one.
    """
    return coherent_columns(j, [_real("theta", theta)])[:, 0]


def coherent_columns(j, thetas) -> np.ndarray:
    """Populations of the coherent states at each of ``thetas``, one per column.

    Column i is :func:`coherent_populations` at ``thetas[i]``, shape
    (2j+1, len(thetas)); ``thetas`` must be 1-d.  The pmf is evaluated in
    log space from exact integer binomials, made and logged one at a time, so
    large 2j neither overflows nor holds all of them at once.
    The log-pmf k log c^2 + (2j - k) log(1 - c^2) + log C(2j, k),
    c^2 = cos^2(theta/2), is built in the returned array itself, the second
    term a block of rows (at most 2^15 doubles, or one row) at a time, and
    exponentiated there, so no other array of its size is formed.  A pole,
    where c^2 rounds to exactly 1 or 0, takes c^2 = 1/2 inside the
    logarithms (so no log 0 is formed) and is then set one-hot at m = +j or
    m = -j.
    """
    tj = _check_frame(j)
    thetas = _reals("theta", thetas)
    if thetas.ndim != 1:
        raise DomainError(f"thetas must be a 1-d array of angles, got shape {thetas.shape}")
    _check_polar("theta", thetas)
    # Half-angle identity keeps the poles exact: cos^2(theta/2) = (1+cos)/2.
    prob_up = np.cos(thetas)
    prob_up += 1.0
    prob_up /= 2.0
    north, south = prob_up == 1.0, prob_up == 0.0
    poles = north | south
    prob_up[poles] = 0.5
    log_down = np.log1p(-prob_up)
    columns = np.multiply.outer(np.arange(tj + 1), np.log(prob_up))
    block = max(1, (1 << 15) // max(1, len(thetas)))  # rows of <= 2^15 doubles
    for start in range(0, tj + 1, block):
        down = tj - np.arange(start, min(start + block, tj + 1))
        columns[start:start + block] += np.multiply.outer(down, log_down)
    columns += _log_binomials(tj)[:, None]
    np.exp(columns, out=columns)
    columns[:, poles] = 0.0
    columns[-1, north] = 1.0
    columns[0, south] = 1.0
    return columns


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0 ... n, each from the exact integer C(n, k), mirrored
    past n/2; the recurrence holds one exact binomial at a time."""
    half = itertools.accumulate(range(n // 2), lambda c, k: c * (n - k) // (k + 1), initial=1)
    logs = np.fromiter(map(math.log, half), float, count=n // 2 + 1)
    return np.concatenate([logs, logs[n - len(logs)::-1]])
