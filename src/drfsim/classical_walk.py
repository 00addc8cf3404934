"""Semi-classical frame model: a random walk of a direction on the sphere.

The frame's orientation is a probability distribution on S^2, restricted to
azimuthal symmetry and carried as its exact degree-4j Legendre series

    p(theta) = sum_{l=0..4j} c_l P_l(cos theta),

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
from numpy.polynomial.legendre import legval

from .angular_momentum import _check_frame
from .errors import AccuracyError, DomainError, _check_count, _check_finite, _real
from .quantum_drf import FidelitySeries, _cpu_count, _in_workers, multipole_spectrum
from .tolerances import require

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
]

_MIN_RING_GRID = 2048
_RING_CHUNK_POINTS = 1 << 16  # ring points per pass of ring_average's buffers
_RECONSTRUCTION_GRID = 4096  # theta points on which positivity is checked


@dataclass(frozen=True)
class LegendreSpectrum:
    """Legendre coefficients c_0 ... c_lmax of an azimuthally symmetric
    distribution; c_0 is exactly 1 and l_max is at least 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise DomainError(f"coeffs must be a 1-d array of at least 2 coefficients, "
                              f"got shape {arr.shape}")
        if arr[0] != 1.0:
            raise DomainError(f"coeffs must start with c_0 = 1 exactly, got {arr[0]}")
        _check_finite("coeffs", arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def l_max(self) -> int:
        """Highest degree of the series."""
        return len(self.coeffs) - 1

    def reconstruct(self, theta) -> np.ndarray:
        """Evaluate p(theta) = sum_l c_l P_l(cos theta)."""
        return legval(np.cos(theta), self.coeffs)

    def min_reconstructed(self) -> float:
        """Minimum of the reconstruction on a uniform grid of 4096 theta points."""
        theta = np.linspace(0.0, math.pi, _RECONSTRUCTION_GRID)
        return float(np.min(self.reconstruct(theta)))


@dataclass(frozen=True)
class WalkParameters:
    """Fixed-step walk settings: kick angle alpha (radians) and step count n."""

    alpha: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real("alpha", self.alpha))
        if not 0.0 <= self.alpha <= math.pi:
            raise DomainError(f"alpha must lie in [0, pi], got {self.alpha}")
        _check_count("n", self.n)


def initial_spectrum(j) -> LegendreSpectrum:
    """Expand the starting distribution matched to the aligned quantum frame.

    The distribution is p0(theta) = (4j + 1) [cos(theta/2)]^(8j): aligned
    with the reference axis and carrying the same angular spread as the
    aligned spin-j coherent state.  It is a polynomial of degree N = 4j in
    x = cos(theta), and its coefficients have the exact product form

        c_l = (2l + 1) prod_{i=1..l} (N + 1 - i) / (N + 1 + i),

    so c_0 = 1, c_1 = 6j / (2j + 1) and c_l = 0 for every l > N: the
    returned series is exact and holds the N + 1 coefficients c_0 ... c_N.
    Requires 2j >= 1.
    """
    big_n = 2 * _check_frame(j).twice_j
    i = np.arange(1, big_n + 1)
    ratios = (big_n + 1 - i) / (big_n + 1.0 + i)
    return LegendreSpectrum(
        (2 * np.arange(big_n + 1) + 1) * np.concatenate(([1.0], np.cumprod(ratios)))
    )


def walk_evolve(spec: LegendreSpectrum, params: WalkParameters) -> LegendreSpectrum:
    """Advance a spectrum by n fixed-angle kicks.

    The ring-averaging operator of a single kick has the Legendre
    polynomials as eigenfunctions, so each coefficient just scales:

        c_l(n) = c_l(0) * [P_l(cos alpha)]^n.

    c_0 is untouched (P_0 = 1), preserving normalisation exactly.
    """
    gains = _legendre_values(spec.l_max, math.cos(params.alpha)) ** params.n
    coeffs = spec.coeffs * gains
    coeffs[0] = 1.0
    return LegendreSpectrum(coeffs)


def _legendre_values(l_max: int, x: float) -> np.ndarray:
    """P_0(x) ... P_l_max(x), l_max >= 1, by the recurrence in x - 1.

    Each step adds d_k = P_(k+1) - P_k,

        d_k = ((2k + 1) / (k + 1)) (x - 1) P_k + (k / (k + 1)) d_(k-1),

    which stays accurate next to x = +-1, where Bonnet's recurrence in x
    (numpy's ``legvander``) loses up to 5.6e-12.  These are the steps of
    scipy's ``eval_legendre``, in the same order, so the two agree bit for
    bit except at |x| < 1e-5, where scipy sums a series instead.
    """
    values = [1.0, x]
    d, p = x - 1.0, x
    for k in range(1, l_max):
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p += d
        values.append(p)
    return np.array(values)


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
    n.  The series' ``error`` against the closed form 1/2 + A cos(alpha)^n,
    A = j/(2j+1) the amplitude of :func:`~drfsim.quantum_drf.multipole_spectrum`,
    is checked against ``ORACLE_TOL`` before the series is returned.  Requires 2j >= 1.
    """
    j = _check_frame(j)
    n_max = _check_count("n_max", n_max)
    alpha = WalkParameters(alpha, n_max).alpha  # checked, as a float
    c0, c1 = initial_spectrum(j).coeffs[:2]
    gains = np.arange(n_max + 1, dtype=float)
    np.power(math.cos(alpha), gains, out=gains)  # cos(alpha)^n
    fid = np.multiply(gains, c1)  # 0.5 (c0 + c1 gains / 3), in place
    fid /= 3.0
    fid += c0
    fid *= 0.5
    closed = gains  # 1/2 + A gains, over the gains
    closed *= multipole_spectrum(j).amplitude
    closed += 0.5
    series = FidelitySeries(j, fid, closed)
    step = int(np.argmax(series.error))  # the first NaN, if there is one
    require(f"classical_walk.classical_fidelity_series: 2j={j.twice_j}, step {step}",
            "walk fidelity |F - F_closed|", series.error[step], "ORACLE_TOL")
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
    values[i]), the difference taken as 0 at the last node.  Chunks of grid
    rows go to the W workers of :func:`~drfsim.quantum_drf._in_workers`, one
    per core and at most one per chunk, as they free up.  A worker writes its
    chunks' rows of the result, in three buffers of its own (angles, bracket
    indices, gathered values).  A chunk holds about 2^16 / W ring points, so
    all buffers stay at about 2^16 points, in cache whatever the grid size.
    A row's arithmetic does not depend on W or on the worker, so neither does
    the result.  Each ring's weighted terms are summed pairwise
    (``np.add.reduce`` along the row), which stays within an ulp or so of
    the exact mean even when the terms are alike, as they are near
    theta = 0.

    Parameters
    ----------
    thetas : array
        Uniform ascending grid covering [0, pi] with at least 2048 points.
    values : array
        Distribution tabulated on ``thetas``.
    alpha : float
        Kick angle, strictly inside (0, pi).
    n_psi : int
        Number of azimuth nodes for the ring quadrature, at least 1.
    """
    thetas = np.asarray(thetas, dtype=float)
    values = np.asarray(values, dtype=float)
    if thetas.ndim != 1 or thetas.shape != values.shape:
        raise DomainError("thetas and values must be 1-d arrays of equal length")
    _check_finite("values", values)
    n_grid = len(thetas)
    if n_grid < _MIN_RING_GRID:
        raise AccuracyError(
            f"classical_walk.ring_average: grid of {n_grid} points is too "
            f"coarse (need >= {_MIN_RING_GRID})"
        )
    if not (0.0 < (alpha := _real("alpha", alpha)) < math.pi):
        raise DomainError(f"alpha must lie strictly inside (0, pi), got {alpha}")
    n_psi = _check_count("classical_walk.ring_average: n_psi", n_psi, 1)
    step = math.pi / (n_grid - 1)
    require(f"classical_walk.ring_average: {n_grid} grid points",
            "largest |theta_i - i pi/(N-1)|",
            np.max(np.abs(thetas - np.arange(n_grid) * step)), "STRUCTURE_TOL",
            DomainError)

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
    cpus = _cpu_count()
    rows = min(max(1, _RING_CHUNK_POINTS // cpus // (half + 1)), n_grid)
    chunks = -(-n_grid // rows)
    out = np.empty(n_grid)
    shape = (rows, half + 1)
    buffers = [(np.empty(shape), np.empty(shape, dtype=np.intp), np.empty(shape))
               for _ in range(min(cpus, chunks))]

    def average(w, chunk):
        start = chunk * rows
        stop = min(start + rows, n_grid)
        u, i, g = (buffer[: stop - start] for buffer in buffers[w])
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

    _in_workers(len(buffers), chunks, average)
    return out


def angular_variance(j) -> float:
    """Variance of the misalignment angle of the starting distribution.

    The angular profile cos^(8j)(theta/2) is treated as a symmetric
    one-dimensional distribution in theta (its even extension has zero
    mean), so the variance is the plain second moment

        Var = int theta^2 f(theta) dtheta / int f(theta) dtheta

    over [0, pi].  With phi = theta/2 the profile is cos^(2N) phi, N = 4j,
    whose moment has the exact finite sum

        Var = pi^2/3 - 2 sum_{k=1..N} 1/k^2 = 2 psi_1(N + 1),

    added up with ``math.fsum``.  For large j it tends to 1/(2j), the squared
    angular uncertainty of the aligned spin-j coherent state.
    """
    terms = (-2.0 / (k * k) for k in range(1, 2 * _check_frame(j).twice_j + 1))
    return math.fsum([math.pi**2 / 3.0, *terms])
