"""Tests whether evolved frame states are mixtures of spin coherent states.

Azimuthally averaged mixtures of tilted coherent states are diagonal in m,
with populations that are integrals of the single-angle population vectors.
Since the measurement channel never creates coherences, decomposability of
an evolved frame state over the whole coherent family reduces to a
non-negative least-squares fit of its population vector against those
columns at a discrete grid of angles, which :func:`build_grid` returns as
the pair (nodes, columns).  A residual that stays large as the grid is
refined certifies that no such mixture exists; the residual threshold and
the grid-doubling stability check are this package's operational criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .angular_momentum import _check_frame, coherent_columns
from .errors import ConvergenceError, DomainError, _check_count, _check_finite, _real, _reals
from .quantum_drf import FrameState, flux_step
from .spectrum import transfer_rates
from .tolerances import KKT_TOL, require

__all__ = [
    "DecompositionResult",
    "build_grid",
    "nnls_solve",
    "convexity_test",
    "convexity_series",
]

_CAP_PER_COLUMN = 10  # variables nnls_solve admits, per column, before it gives up


def build_grid(j, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes uniform in cos(theta), endpoints included, and their coherent
    population columns: the pair ``(thetas, columns)``, ``columns`` of shape
    (2j + 1, n_nodes).

    Requires an integer count of at least as many candidates as population
    entries (2j + 1).  Raises :class:`InternalConsistencyError` if a column
    sums to more than ``STRUCTURE_TOL`` away from 1.
    """
    tj = _check_frame(j)
    n_nodes = _check_count(f"2j={tj}: n_nodes", n_nodes, tj + 1)
    thetas = np.arccos(np.linspace(1.0, -1.0, n_nodes))
    columns = coherent_columns(tj, thetas)
    require(f"coherent_analysis.build_grid: 2j={tj}, {n_nodes} nodes",
            "largest |column sum - 1|", np.max(np.abs(columns.sum(axis=0) - 1.0)),
            "STRUCTURE_TOL")
    return thetas, columns


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a non-negative fit: weights, residual, and weight-sum gap."""

    weights: np.ndarray
    residual: float
    weight_sum_gap: float

    def __post_init__(self):
        weights = _reals("weights", self.weights).copy()  # frozen below
        if weights.ndim != 1:
            raise DomainError(f"weights must be a 1-d array, got shape {weights.shape}")
        checked = {"weights": weights, "residual": _real("residual", self.residual),
                   "weight_sum_gap": _real("weight_sum_gap", self.weight_sum_gap)}
        for name, value in checked.items():  # NaN fails both bounds
            if not (0.0 <= np.min(value, initial=0.0) and np.max(value, initial=0.0) < math.inf):
                raise DomainError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, value)
        self.weights.setflags(write=False)


def _result(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> DecompositionResult:
    return DecompositionResult(
        weights=x,
        residual=float(np.linalg.norm(A @ x - b)),
        weight_sum_gap=float(abs(x.sum() - 1.0)),
    )


def nnls_solve(A, b, *, start=None) -> DecompositionResult:
    """Minimise ||A w - b||_2 subject to w >= 0 (Lawson-Hanson active set).

    Variables move between the bound set (pinned at zero) and the free set;
    each outer iteration admits the bound variable with the largest positive
    dual A^T(b - Aw) (ties broken by lowest index) and re-solves the
    unconstrained least-squares problem on the free set, stepping back along
    the segment to the first zero crossing whenever a free variable would go
    negative.  Terminates when every bound dual is <= ``KKT_TOL``, i.e. all
    bound-set reduced gradients are >= -KKT_TOL.  The loop starts from the
    least-squares fit on the support ``start`` (a bool per column) if that
    fit is positive, and otherwise from w = 0 with every variable bound.

    Raises
    ------
    ConvergenceError
        If more than 10 x n_columns variables are admitted; the error
        carries the best iterate as ``result``.
    """
    A, b = _reals("matrix A", A), _reals("target b", b)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DomainError(
            f"incompatible shapes: A is {A.shape}, b is {b.shape}"
        )
    if not A.shape[1]:
        raise DomainError(f"matrix A must have at least one column, got shape {A.shape}")
    _check_finite("matrix A", A)
    _check_finite("target b", b)
    require(f"coherent_analysis.nnls_solve: {A.shape[0]} x {A.shape[1]} matrix",
            "target b must sum to 1; its gap", abs(b.sum() - 1.0),
            "NNLS_TARGET_SUM_TOL", DomainError)
    n = A.shape[1]
    cap = _CAP_PER_COLUMN * n

    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    if start is not None:
        start = np.asarray(start)
        if start.dtype != bool or start.shape != (n,):
            raise DomainError(f"start must be a bool array of shape ({n},), "
                              f"got {start.dtype} of shape {start.shape}")
        solution = np.linalg.lstsq(A[:, start], b, rcond=None)[0]
        if solution.size and solution.min() > 0.0:  # else cold: no 0/0 step below
            free = start.copy()
            x[free] = solution
    admitted = 0
    while True:
        dual = A.T @ (b - A[:, free] @ x[free])
        candidates = np.where(free, -np.inf, dual)
        entering = int(np.argmax(candidates))  # argmax takes the lowest index on ties
        if candidates[entering] <= KKT_TOL:
            return _result(A, b, x)
        admitted += 1
        if admitted > cap:
            raise ConvergenceError(
                f"coherent_analysis.nnls_solve: iteration cap {cap} "
                f"exceeded with largest bound dual {candidates[entering]:.3e} "
                f"still above KKT_TOL = {KKT_TOL:g}",
                result=_result(A, b, x),
            )
        free[entering] = True
        while True:
            trial = np.zeros(n)
            solution = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            trial[free] = solution
            if solution.size == 0 or solution.min() > 0.0:
                x = trial
                break
            blocking = free & (trial <= 0.0)
            steps = x[blocking] / (x[blocking] - trial[blocking])
            x = x + steps.min() * (trial - x)
            free &= x > 0.0
            x[~free] = 0.0


def convexity_test(j, n: int, n_nodes: int) -> DecompositionResult:
    """Fit the n-step evolved frame populations against the coherent family.

    Evolves the aligned state through n measurements (the state stays
    diagonal), then runs :func:`nnls_solve` of its population vector against
    :func:`build_grid`.  At n = 0 the state is itself a grid column, so the
    residual vanishes; a residual that stays above threshold as n_nodes
    doubles signals genuine non-decomposability rather than grid error.
    """
    tj = _check_frame(j)
    n = _check_count("n", n)
    state = next(islice(_evolved_populations(tj), n, None))
    return _fit("convexity_test", tj, n, build_grid(tj, n_nodes)[1], state)


def convexity_series(j, n_max: int, n_nodes: int) -> list:
    """:func:`convexity_test` for every n = 0 ... n_max, sharing the work.

    The grid is built once, the state advances one map step per n, and fit n
    starts from fit n - 1's support.  So entry n is ``convexity_test(j, n,
    n_nodes)``, the cold fit, in support and residual, except where the state
    is an exact mixture: there only the residual, at rounding level, agrees.
    """
    tj = _check_frame(j)
    n_max = _check_count("n_max", n_max)
    _, columns = build_grid(tj, n_nodes)
    results = []
    for n, state in enumerate(islice(_evolved_populations(tj), n_max + 1)):
        start = results[-1].weights > 0.0 if results else None
        results.append(_fit("convexity_series", tj, n, columns, state, start))
    return results


def _fit(caller: str, twice_j: int, n: int, columns: np.ndarray,
         state: np.ndarray, start=None) -> DecompositionResult:
    """:func:`nnls_solve` whose cap error also names 2j, n and the grid size."""
    try:
        return nnls_solve(columns, state, start=start)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"coherent_analysis.{caller}: 2j={twice_j}, n={n}, "
            f"n_nodes={columns.shape[1]}: {err}",
            result=err.result,
        ) from err


def _evolved_populations(twice_j: int):
    """Validated populations of the aligned state after 0, 1, 2, ... map steps."""
    rates = transfer_rates(twice_j)
    populations = FrameState.stretched(twice_j).populations
    while True:
        yield FrameState(populations).data
        populations = flux_step(populations, rates)
