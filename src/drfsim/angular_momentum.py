"""Exact angular-momentum coupling primitives for a spin-j frame and one qubit.

All quantum numbers are carried as doubled integers (``twice_j``,
``twice_m``) so that half-integer spins stay exact.  Coupling arithmetic is
done on integers (via :class:`fractions.Fraction`); floating point enters
only at the final square root.

Conventions
-----------
* Frame basis states are indexed by m ascending, m = -j ... +j.
* The qubit basis is ``|0>`` (spin up, aligned with the reference axis) and
  ``|1>`` (spin down); Condon-Shortley phases are used throughout.  All
  physically observable quantities downstream are quadratic in the
  coefficients and therefore convention independent.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _check_count, _check_member, _index, _real, _reals

__all__ = [
    "SpinLabel",
    "CouplingBranch",
    "CGCoefficient",
    "as_spin",
    "cg_coefficient",
    "projector_element",
    "coherent_populations",
    "coherent_columns",
]


@dataclass(frozen=True, order=True)
class SpinLabel:
    """A spin quantum number j, stored exactly as the integer 2j."""

    twice_j: int

    def __post_init__(self):
        object.__setattr__(self, "twice_j", _check_count("twice_j", self.twice_j))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j space."""
        return self.twice_j + 1

    @property
    def twice_m_values(self) -> np.ndarray:
        """All magnetic numbers 2m, ascending from -2j to +2j."""
        return np.arange(-self.twice_j, self.twice_j + 1, 2)

    def __str__(self) -> str:
        return f"j={Fraction(self.twice_j, 2)}"


def as_spin(j) -> SpinLabel:
    """Coerce an int (read as 2j) or a SpinLabel to a SpinLabel."""
    if isinstance(j, SpinLabel):
        return j
    return SpinLabel(j)


def _check_frame(j) -> SpinLabel:
    """:func:`as_spin` of a frame that has the J = j - 1/2 branch, 2j >= 1."""
    j = as_spin(j)
    if j.twice_j < 1:
        raise DomainError(f"j must have 2j >= 1, got 2j={j.twice_j}")
    return j


class CouplingBranch(enum.Enum):
    """Total-spin branch of j (x) 1/2: J = j + 1/2 (PLUS) or J = j - 1/2 (MINUS)."""

    PLUS = +1
    MINUS = -1


class CGCoefficient(NamedTuple):
    """A coupling coefficient represented exactly as sign * sqrt(square)."""

    sign: int
    square: Fraction

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.square)


def _check_magnetic(j: SpinLabel, twice_m: int, what: str = "m") -> int:
    index = _index(twice_m)  # int() would truncate 2m = 1.9 to 1
    if index is None:
        raise DomainError(f"2{what}={twice_m!r} must be an integer for {j}")
    if (index - j.twice_j) % 2 != 0:
        raise DomainError(
            f"2{what}={index} has wrong parity for {j} (must match 2j mod 2)"
        )
    if abs(index) > j.twice_j:
        raise DomainError(f"|{what}| exceeds j: 2{what}={index}, {j}")
    return index


def _check_branch(branch) -> None:
    if not isinstance(branch, CouplingBranch):  # +1, "PLUS" or None would read as MINUS
        raise DomainError(f"branch must be a CouplingBranch member, got {branch!r}")


def cg_coefficient(j, twice_m: int, s_up: bool, branch: CouplingBranch) -> CGCoefficient:
    """Clebsch-Gordan coefficient <J, M | j, m; 1/2, s> for j (x) 1/2 coupling.

    Parameters
    ----------
    j : SpinLabel or int
        Frame spin (an int is read as 2j).
    twice_m : int
        Doubled magnetic number 2m of the frame state.
    s_up : bool
        True for the qubit component s = +1/2, False for s = -1/2.
    branch : CouplingBranch
        PLUS selects J = j + 1/2, MINUS selects J = j - 1/2.

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

    ========  =========  ==================
    branch    s          coefficient
    ========  =========  ==================
    PLUS      up         +sqrt((j+m+1)/q)
    PLUS      down       +sqrt((j-m+1)/q)
    MINUS     up         -sqrt((j-m)/q)
    MINUS     down       +sqrt((j+m)/q)
    ========  =========  ==================
    """
    j = as_spin(j)
    twice_m = _check_magnetic(j, twice_m)
    _check_branch(branch)
    if branch is CouplingBranch.MINUS and j.twice_j == 0:
        raise DomainError("the J = j - 1/2 branch does not exist for j = 0")

    denom = 2 * (j.twice_j + 1)  # 2q with q = 2j+1; numerators below are 2*(j+-m...)
    if branch is CouplingBranch.PLUS:
        if s_up:
            num, sign = j.twice_j + twice_m + 2, +1  # 2(j+m+1)
        else:
            num, sign = j.twice_j - twice_m + 2, +1  # 2(j-m+1)
    else:
        if s_up:
            num, sign = j.twice_j - twice_m, -1  # 2(j-m)
        else:
            num, sign = j.twice_j + twice_m, +1  # 2(j+m)
    square = Fraction(num, denom)
    if square == 0:
        sign = 1
    return CGCoefficient(sign, square)


def projector_element(
    j,
    branch: CouplingBranch,
    a: int,
    b: int,
    twice_m_row: int,
    twice_m_col: int,
) -> float:
    """Matrix element <j, m_row| <a| Pi_c |b> |j, m_col> of a total-J projector.

    Pi_c projects H_j (x) H_{1/2} onto the total-spin-J multiplet selected by
    ``branch``; resolving Pi_c = sum_M |J,M><J,M| through the coupling table
    gives the element as a product of two coefficients.  It vanishes unless
    m_row + s_a = m_col + s_b (conservation of total M), so the (a=b)
    operators are diagonal in m and the (a != b) operators shift m by one.
    """
    j = as_spin(j)
    _check_branch(branch)
    a, b = _check_member("a", a, (0, 1)), _check_member("b", b, (0, 1))
    twice_m_row = _check_magnetic(j, twice_m_row, "m_row")
    twice_m_col = _check_magnetic(j, twice_m_col, "m_col")
    twice_s_a = 1 if a == 0 else -1
    twice_s_b = 1 if b == 0 else -1
    if twice_m_row + twice_s_a != twice_m_col + twice_s_b:
        return 0.0
    left = cg_coefficient(j, twice_m_row, a == 0, branch)
    right = cg_coefficient(j, twice_m_col, b == 0, branch)
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
    log space from exact integer binomials, so large 2j does not overflow.
    The log-pmf k log c^2 + (2j - k) log(1 - c^2) + log C(2j, k),
    c^2 = cos^2(theta/2), is built in the returned array itself, a row at a
    time for the second term, and exponentiated there, so no other array of
    its size is formed.  A pole, where c^2 rounds to exactly 1 or 0, takes
    c^2 = 1/2 inside the logarithms (so no log 0 is formed) and is then set
    one-hot at m = +j or m = -j.
    """
    j = as_spin(j)
    thetas = _reals("theta", thetas)
    if thetas.ndim != 1:
        raise DomainError(f"thetas must be a 1-d array of angles, got shape {thetas.shape}")
    valid = (0.0 <= thetas) & (thetas <= math.pi)
    if not np.all(valid):
        raise DomainError(f"theta must lie in [0, pi], got {thetas[~valid][0]}")
    # Half-angle identity keeps the poles exact: cos^2(theta/2) = (1+cos)/2.
    prob_up = np.cos(thetas)
    prob_up += 1.0
    prob_up /= 2.0
    north, south = prob_up == 1.0, prob_up == 0.0
    poles = north | south
    prob_up[poles] = 0.5
    log_down = np.log1p(-prob_up)
    columns = np.multiply.outer(np.arange(j.dim), np.log(prob_up))
    row = prob_up  # no longer needed: reused for (2j - k) log(1 - c^2)
    for k in range(j.dim):
        np.multiply(log_down, j.twice_j - k, out=row)
        columns[k] += row
    columns += _log_binomials(j.twice_j)[:, None]
    np.exp(columns, out=columns)
    columns[:, poles] = 0.0
    columns[-1, north] = 1.0
    columns[0, south] = 1.0
    return columns


@functools.lru_cache(maxsize=16)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0 ... n, each from the exact integer C(n, k)."""
    logs = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
    logs.setflags(write=False)
    return logs
