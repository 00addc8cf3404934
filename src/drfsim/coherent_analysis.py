"""Tests whether evolved frame states are mixtures of spin coherent states.

Azimuthally averaged mixtures of tilted coherent states are diagonal in m,
with populations that are integrals of the single-angle population vectors.
Since the measurement channel never creates coherences, decomposability of
an evolved frame state over the whole coherent family reduces to a
non-negative least-squares fit of its population vector against a discrete
grid of those columns.  A residual that stays large as the grid is refined
certifies that no such mixture exists; the residual threshold and the
grid-doubling stability check are this package's operational criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .angular_momentum import SpinLabel, as_spin, coherent_columns
from .errors import ConvergenceError, DomainError, _check_count, _check_finite, _reals
from .quantum_drf import FrameState, flux_step, transfer_rates
from .tolerances import KKT_TOL, require

__all__ = [
    "CoherentGrid",
    "DecompositionResult",
    "build_grid",
    "nnls_solve",
    "convexity_test",
    "convexity_series",
]

@dataclass(frozen=True)
class CoherentGrid:
    """Candidate family: population columns of coherent states on a theta grid."""

    j: SpinLabel
    thetas: np.ndarray
    columns: np.ndarray  # shape (2j+1, n_nodes)

    def __post_init__(self):
        object.__setattr__(self, "j", as_spin(self.j))
        thetas = np.asarray(self.thetas, dtype=float)
        columns = np.asarray(self.columns, dtype=float)
        if thetas.ndim != 1 or thetas.size < 2:
            raise DomainError(f"grid angles thetas must be a 1-d array of at least "
                              f"2 angles, got shape {thetas.shape}")
        if not np.all(np.diff(thetas) > 0):
            raise DomainError("grid angles thetas must be strictly increasing")
        where = f"CoherentGrid: 2j={self.j.twice_j}, {thetas.size} nodes"
        require(where, "|thetas[0]|", abs(thetas[0]), "GRID_ORIGIN_TOL", DomainError)
        require(where, "|thetas[-1] - pi|", abs(thetas[-1] - math.pi), "STRUCTURE_TOL",
                DomainError)
        if columns.shape != (self.j.dim, len(thetas)):
            raise DomainError(f"columns must have shape {(self.j.dim, thetas.size)}, "
                              f"got {columns.shape}")
        require(where, "every column of columns must sum to 1; largest gap",
                np.max(np.abs(columns.sum(axis=0) - 1.0)), "STRUCTURE_TOL", DomainError)
        thetas.setflags(write=False)
        columns.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "columns", columns)

    @property
    def n_nodes(self) -> int:
        return len(self.thetas)


def build_grid(j, n_nodes: int) -> CoherentGrid:
    """Place nodes uniformly in cos(theta), endpoints included.

    Requires an integer count of at least as many candidates as population
    entries (2j + 1).
    """
    j = as_spin(j)
    n_nodes = _check_count(f"{j}: n_nodes", n_nodes, j.dim)
    thetas = np.arccos(np.linspace(1.0, -1.0, n_nodes))
    return CoherentGrid(j, thetas, coherent_columns(j, thetas))


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a non-negative fit: weights, residual, and weight-sum gap."""

    weights: np.ndarray
    residual: float
    weight_sum_gap: float

    def __post_init__(self):
        w = _reals("weights", self.weights)
        for name, value in (("weights", w), ("residual", self.residual),
                            ("weight_sum_gap", self.weight_sum_gap)):
            value = _reals(name, value)  # NaN fails both bounds
            if not (0.0 <= value.min(initial=0.0) and value.max(initial=0.0) < math.inf):
                raise DomainError(f"{name} must be finite and non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _result(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> DecompositionResult:
    return DecompositionResult(
        weights=x,
        residual=float(np.linalg.norm(A @ x - b)),
        weight_sum_gap=float(abs(x.sum() - 1.0)),
    )


def nnls_solve(A, b, max_iter: int | None = None, *, start=None) -> DecompositionResult:
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
        If more than ``max_iter`` >= 0 (default 10 x n_columns) variables
        are admitted; the error carries the best iterate as ``result``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DomainError(
            f"incompatible shapes: A is {A.shape}, b is {b.shape}"
        )
    _check_finite("matrix A", A)
    require(f"coherent_analysis.nnls_solve: {A.shape[0]} x {A.shape[1]} matrix",
            "target b must sum to 1; its gap", abs(b.sum() - 1.0),
            "NNLS_TARGET_SUM_TOL", DomainError)
    n = A.shape[1]
    max_iter = 10 * n if max_iter is None else _check_count("max_iter", max_iter)

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
        if admitted > max_iter:
            raise ConvergenceError(
                f"coherent_analysis.nnls_solve: iteration cap {max_iter} "
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
    j = as_spin(j)
    n = _check_count("n", n)
    state = next(islice(_evolved_populations(j), n, None))
    return _fit("convexity_test", j, n, build_grid(j, n_nodes), state)


def convexity_series(j, n_max: int, n_nodes: int) -> list:
    """:func:`convexity_test` for every n = 0 ... n_max, sharing the work.

    The grid is built once, the state advances one map step per n, and fit n
    starts from fit n - 1's support.  So entry n is ``convexity_test(j, n,
    n_nodes)``, the cold fit, in support and residual, except where the state
    is an exact mixture: there only the residual, at rounding level, agrees.
    """
    j = as_spin(j)
    n_max = _check_count("n_max", n_max)
    grid = build_grid(j, n_nodes)
    results = []
    for n, state in enumerate(islice(_evolved_populations(j), n_max + 1)):
        start = results[-1].weights > 0.0 if results else None
        results.append(_fit("convexity_series", j, n, grid, state, start))
    return results


def _fit(caller: str, j: SpinLabel, n: int, grid: CoherentGrid,
         state: np.ndarray, start=None) -> DecompositionResult:
    """:func:`nnls_solve` whose cap error also names 2j, n and the grid size."""
    try:
        return nnls_solve(grid.columns, state, start=start)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"coherent_analysis.{caller}: 2j={j.twice_j}, n={n}, "
            f"n_nodes={grid.n_nodes}: {err}",
            result=err.result,
        ) from err


def _evolved_populations(j: SpinLabel):
    """Validated populations of the aligned state after 0, 1, 2, ... map steps."""
    rates = transfer_rates(j)
    populations = FrameState.stretched(j).populations
    while True:
        yield FrameState.from_populations(j, populations).data
        populations = flux_step(populations, rates)
