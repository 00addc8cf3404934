"""Semi-classical frame model: a random walk of a direction on the sphere.

The frame's orientation is a probability distribution on S^2, restricted to
azimuthal symmetry and carried as a truncated Legendre series

    p(theta) = sum_l c_l P_l(cos theta),

normalised so that the l = 0 coefficient is exactly one under the measure
sin(theta) d(theta) / 2.  Each measurement kicks the direction by a fixed
angle alpha toward a uniformly random azimuth; the induced averaging
operator is diagonal in this basis with eigenvalue P_l(cos alpha), so the
walk is evolved in coefficient space.  The starting coefficients have an
exact product form, and the fidelity needs only c_1, so a whole fidelity
series is one vectorised power of P_1(cos alpha) = cos(alpha).  A direct
grid implementation of the ring average is provided purely as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legval
from scipy.special import eval_legendre

from .angular_momentum import as_spin
from .errors import AccuracyError, DomainError, InternalConsistencyError
from .quantum_drf import FidelitySeries, multipole_spectrum
from .tolerances import ORACLE_TOL, POSITIVITY_ALLOWANCE, STRUCTURE_TOL

__all__ = [
    "LegendreSpectrum",
    "WalkParameters",
    "initial_spectrum",
    "walk_evolve",
    "classical_fidelity",
    "classical_fidelity_series",
    "fitted_step",
    "ring_average",
    "angular_variance",
    "default_l_max",
]

_MIN_RING_GRID = 2048
_RING_CHUNK_POINTS = 1 << 16  # ring points per pass of ring_average's buffers


def default_l_max(j) -> int:
    """Truncation order used when none is given: max(4j + 16, 64).

    The initial spectrum vanishes exactly beyond l = 4j and the walk only
    shrinks coefficients, so this truncation drops nothing.
    """
    return max(2 * as_spin(j).twice_j + 16, 64)


@dataclass(frozen=True)
class LegendreSpectrum:
    """Truncated Legendre coefficients of an azimuthally symmetric distribution."""

    l_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.l_max < 1:
            raise DomainError("l_max must be at least 1")
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != (self.l_max + 1,):
            raise DomainError(
                f"expected {self.l_max + 1} coefficients, got shape {arr.shape}"
            )
        if arr[0] != 1.0:
            raise DomainError(f"c_0 must be exactly 1, got {arr[0]!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def reconstruct(self, theta) -> np.ndarray:
        """Evaluate p(theta) = sum_l c_l P_l(cos theta)."""
        return legval(np.cos(theta), self.coeffs)

    def min_reconstructed(self, grid_points: int = 4096) -> float:
        """Minimum of the reconstruction on a uniform theta grid."""
        theta = np.linspace(0.0, math.pi, grid_points)
        return float(np.min(self.reconstruct(theta)))

    def require_positive(self, allowance: float = POSITIVITY_ALLOWANCE,
                         grid_points: int = 4096):
        """Raise unless the reconstruction stays above -``allowance``.

        The error names l_max, the grid size, the dip and the allowance.
        """
        worst = self.min_reconstructed(grid_points)
        if worst < -allowance:
            name = ("POSITIVITY_ALLOWANCE" if allowance == POSITIVITY_ALLOWANCE
                    else "allowance")
            raise InternalConsistencyError(
                f"LegendreSpectrum: l_max={self.l_max}: reconstructed distribution "
                f"dips to {worst:.3e} on {grid_points} grid points, below "
                f"-{name} = {-allowance:g}"
            )


@dataclass(frozen=True)
class WalkParameters:
    """Fixed-step walk settings: kick angle alpha (radians) and step count n."""

    alpha: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi:
            raise DomainError(f"alpha must lie in [0, pi], got {self.alpha}")
        if self.n < 0:
            raise DomainError(f"step count must be non-negative, got {self.n}")


def initial_spectrum(j, l_max: int | None = None) -> LegendreSpectrum:
    """Expand the starting distribution matched to the aligned quantum frame.

    The distribution is p0(theta) = (4j + 1) [cos(theta/2)]^(8j): aligned
    with the reference axis and carrying the same angular spread as the
    aligned spin-j coherent state.  It is a polynomial of degree N = 4j in
    x = cos(theta), and its coefficients have the exact product form

        c_l = (2l + 1) prod_{i=1..l} (N + 1 - i) / (N + 1 + i),

    so c_0 = 1, c_1 = 6j / (2j + 1) and c_l = 0 for every l > N.
    """
    j = as_spin(j)
    if l_max is None:
        l_max = default_l_max(j)
    if l_max < 1:
        raise DomainError("l_max must be at least 1")
    top = min(l_max, 2 * j.twice_j)  # c_l vanishes beyond N = 4j
    i = np.arange(1, top + 1)
    ratios = (2 * j.twice_j + 1 - i) / (2 * j.twice_j + 1.0 + i)
    coeffs = np.zeros(l_max + 1)
    coeffs[: top + 1] = (2 * np.arange(top + 1) + 1) * np.concatenate(
        ([1.0], np.cumprod(ratios))
    )
    return LegendreSpectrum(l_max, coeffs)


def walk_evolve(spec: LegendreSpectrum, params: WalkParameters) -> LegendreSpectrum:
    """Advance a spectrum by n fixed-angle kicks.

    The ring-averaging operator of a single kick has the Legendre
    polynomials as eigenfunctions, so each coefficient just scales:

        c_l(n) = c_l(0) * [P_l(cos alpha)]^n.

    c_0 is untouched (P_0 = 1), preserving normalisation exactly.
    """
    ell = np.arange(spec.l_max + 1)
    gains = eval_legendre(ell, math.cos(params.alpha)) ** params.n
    coeffs = spec.coeffs * gains
    coeffs[0] = 1.0
    return LegendreSpectrum(spec.l_max, coeffs)


def classical_fidelity(spec: LegendreSpectrum) -> float:
    """Average probability of a correct reading with a distributed frame.

    A frame misaligned by theta reads a known test spin correctly with
    probability cos^2(theta/2) = (P_0 + P_1)/2, so by orthogonality only the
    first two coefficients survive the average:

        F = (c_0 + c_1 / 3) / 2.
    """
    return 0.5 * (spec.coeffs[0] + spec.coeffs[1] / 3.0)


def fitted_step(j) -> float:
    """Kick angle that makes the walk reproduce the quantum fidelity decay.

    cos(alpha) is the k = 1 eigenvalue 1 + x_1 = 1 - 2/(2j+1)^2 of the
    quantum map (:func:`~drfsim.quantum_drf.multipole_spectrum`), which is
    what the walk's P_1(cos alpha) must equal.  alpha is approximately 1/j
    for large j, i.e. the ratio of the measured spin's angular momentum to
    the frame's.  Requires 2j >= 1.
    """
    return math.acos(1.0 + multipole_spectrum(j).averaged[1])


def classical_fidelity_series(j, alpha: float, n_max: int) -> FidelitySeries:
    """Fidelity after each walk step, n = 0 ... n_max, in one vectorised pass.

    Only c_1 enters the fidelity and it scales by P_1(cos alpha) = cos(alpha)
    per kick, so F_C(n) = [c_0 + c_1 cos(alpha)^n / 3] / 2 is what
    :func:`walk_evolve` followed by :func:`classical_fidelity` gives at each
    n.  The result is verified against the closed form 1/2 + A cos(alpha)^n,
    A = j/(2j+1) the amplitude of :func:`~drfsim.quantum_drf.multipole_spectrum`,
    before being returned.  Requires 2j >= 1.
    """
    j = as_spin(j)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    WalkParameters(alpha, n_max)  # validates alpha
    c0, c1 = initial_spectrum(j, 1).coeffs
    steps = np.arange(n_max + 1)
    gains = math.cos(alpha) ** steps
    fid = 0.5 * (c0 + c1 * gains / 3.0)
    closed = 0.5 + multipole_spectrum(j).amplitude * gains
    series = FidelitySeries(j, steps, fid, closed)
    if not series.max_abs_diff <= ORACLE_TOL:
        raise InternalConsistencyError(
            f"classical_walk.classical_fidelity_series: 2j={j.twice_j}: walk "
            f"fidelity strays {series.max_abs_diff:.3e} from the closed form, "
            f"beyond ORACLE_TOL = {ORACLE_TOL:g}"
        )
    return series


def ring_average(thetas: np.ndarray, values: np.ndarray, alpha: float,
                 n_psi: int = 1024) -> np.ndarray:
    """Grid implementation of one averaging kick (test oracle, not production).

    For each grid angle theta the operand is averaged over the ring of
    points one angular step alpha away, using the spherical law of cosines

        cos theta' = cos theta cos alpha + sin theta sin alpha cos psi,

    a uniform trapezoid rule over the ring azimuth psi (periodic, so
    spectrally accurate) and linear interpolation of ``values`` on the theta
    grid.  The integrand depends on psi only through cos(psi), so nodes psi
    and 2 pi - psi coincide: only psi in [0, pi] is evaluated, interior
    nodes counted twice.  Deliberately independent of the Legendre route.

    The grid must be theta_i = i h with h = pi / (N - 1), each node within
    ``STRUCTURE_TOL``, so the interpolation bracket is found by arithmetic
    rather than search: with u = theta' / h it is i = floor(u), clamped to
    N - 1, and the interpolant is values[i] + (u - i) (values[i+1] -
    values[i]), the difference taken as 0 at the last node.  Grid rows are
    processed about 2^16 ring points at a time in three buffers (angles,
    bracket indices, gathered values) reused for every chunk, so the
    working set stays in cache whatever the grid size.  Each ring's weighted
    terms are summed pairwise (``np.add.reduce`` along the row), which
    stays within an ulp or so of the exact mean even when the terms are
    alike, as they are near theta = 0.

    Parameters
    ----------
    thetas : array
        Uniform ascending grid covering [0, pi] with at least 2048 points.
    values : array
        Distribution tabulated on ``thetas``.
    alpha : float
        Kick angle, strictly inside (0, pi).
    n_psi : int
        Number of azimuth nodes for the ring quadrature.
    """
    thetas = np.asarray(thetas, dtype=float)
    values = np.asarray(values, dtype=float)
    if thetas.ndim != 1 or thetas.shape != values.shape:
        raise DomainError("thetas and values must be 1-d arrays of equal length")
    n_grid = len(thetas)
    if n_grid < _MIN_RING_GRID:
        raise AccuracyError(
            f"classical_walk.ring_average: grid of {n_grid} points is too "
            f"coarse (need >= {_MIN_RING_GRID})"
        )
    if not (0.0 < alpha < math.pi):
        raise DomainError(f"alpha must lie strictly inside (0, pi), got {alpha}")
    step = math.pi / (n_grid - 1)
    offset = float(np.max(np.abs(thetas - np.arange(n_grid) * step)))
    if not offset <= STRUCTURE_TOL:
        raise DomainError(
            f"classical_walk.ring_average: theta grid strays {offset:.3e} from "
            f"the uniform grid i*pi/{n_grid - 1}, beyond STRUCTURE_TOL = "
            f"{STRUCTURE_TOL:g}"
        )

    half = n_psi // 2
    cos_psi = np.cos(np.arange(half + 1) * (2.0 * math.pi / n_psi))
    weights = np.full(half + 1, 2.0 / n_psi)
    weights[0] = 1.0 / n_psi
    if n_psi % 2 == 0:
        weights[-1] = 1.0 / n_psi  # psi = pi has no mirror image
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    radial = np.cos(thetas) * cos_a
    tangential = np.sin(thetas) * sin_a
    rise = np.append(np.diff(values), 0.0)
    out = np.empty(n_grid)
    rows = max(1, _RING_CHUNK_POINTS // (half + 1))
    angle = np.empty((min(rows, n_grid), half + 1))
    index = np.empty(angle.shape, dtype=np.intp)
    gather = np.empty(angle.shape)
    for start in range(0, n_grid, rows):
        stop = min(start + rows, n_grid)
        u, i, g = angle[: stop - start], index[: stop - start], gather[: stop - start]
        np.multiply(tangential[start:stop, None], cos_psi, out=u)
        u += radial[start:stop, None]
        np.clip(u, -1.0, 1.0, out=u)
        np.arccos(u, out=u)
        u /= step
        np.copyto(i, u, casting="unsafe")  # u >= 0, so truncation is floor
        u -= i
        # mode="clip" is the clamp to N - 1, where rise is 0
        np.take(rise, i, out=g, mode="clip")
        u *= g
        np.take(values, i, out=g, mode="clip")
        u += g
        u *= weights
        np.add.reduce(u, axis=1, out=out[start:stop])  # pairwise per ring
    return out


def angular_variance(j, n_quad: int | None = None) -> float:
    """Variance of the misalignment angle of the starting distribution.

    The angular profile cos^(8j)(theta/2) is treated as a symmetric
    one-dimensional distribution in theta (its even extension has zero
    mean), so the variance is the plain second moment

        Var = int theta^2 f(theta) dtheta / int f(theta) dtheta

    over [0, pi], evaluated by Gauss-Legendre quadrature.  For large j this
    converges to 1/(2j), the squared angular uncertainty of the aligned
    spin-j coherent state.
    """
    j = as_spin(j)
    if j.twice_j < 1:
        raise DomainError("angular_variance requires 2j >= 1")
    if n_quad is None:
        n_quad = max(256, 4 * j.twice_j + 64)
    x, w = leggauss(n_quad)
    theta = (x + 1.0) * (math.pi / 2.0)
    weights = w * (math.pi / 2.0)
    profile = np.cos(theta / 2.0) ** (4 * j.twice_j)
    return float((weights * theta**2 * profile).sum() / (weights * profile).sum())
