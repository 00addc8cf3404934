"""Semi-classical frame model: a random walk of a direction on the sphere.

The frame's orientation is a probability distribution on S^2, restricted to
azimuthal symmetry and carried as its exact degree-4j Legendre series

    p(theta) = sum_{l=0..4j} c_l P_l(cos theta),

normalised so that the l = 0 coefficient is exactly one under the measure
sin(theta) d(theta) / 2.  Each measurement kicks the direction by a fixed
angle alpha toward a uniformly random azimuth; the induced averaging
operator is diagonal in this basis with eigenvalue P_l(cos alpha), so the
walk is evolved in coefficient space.  One recurrence evaluates the
Legendre polynomials, both for the kick eigenvalues P_l(cos alpha) and for
the reconstruction of p(theta).  The starting coefficients have an exact
product form, and the fidelity needs only c_1, so a whole fidelity series is
one vectorised power of P_1(cos alpha) = cos(alpha).  A direct grid
implementation of the ring average is provided purely as an independent
cross-check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .angular_momentum import _check_frame
from .errors import (DomainError, _check_count, _check_finite, _check_polar, _check_record,
                     _real, _reals)
from .spectrum import _first_multipole
from .tolerances import require

__all__ = [
    "LegendreSpectrum",
    "initial_spectrum",
    "walk_evolve",
    "classical_fidelity",
    "classical_fidelity_series",
    "ring_average",
    "angular_variance",
]

_MIN_RING_GRID = 2048
_RING_CHUNK_POINTS = 1 << 15  # ring points per chunk of ring_average's rows
_RECONSTRUCTION_GRID = 4096  # theta points on which positivity is checked


@dataclass(frozen=True, eq=False)
class LegendreSpectrum:
    """Legendre coefficients c_0 ... c_lmax of an azimuthally symmetric
    distribution; c_0 is exactly 1 and l_max is at least 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _reals("coeffs", self.coeffs).copy()
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
        """Evaluate p(theta) = sum_l c_l P_l(cos theta), theta in [0, pi], one term at a time."""
        theta = _check_polar("theta", _reals("theta", theta))
        terms = _legendre_values(self.l_max, np.cos(theta))
        return sum(c * p for c, p in zip(self.coeffs, terms))

    def min_reconstructed(self) -> float:
        """Minimum of the reconstruction on a uniform grid of 4096 theta points."""
        theta = np.linspace(0.0, math.pi, _RECONSTRUCTION_GRID)
        return float(np.min(self.reconstruct(theta)))


def initial_spectrum(j) -> LegendreSpectrum:
    """Expand the starting distribution matched to the aligned quantum frame.

    The distribution is p0(theta) = (4j + 1) [cos(theta/2)]^(8j): aligned
    with the reference axis and carrying the same angular spread as the
    aligned spin-j coherent state.  It is a polynomial of degree N = 4j in
    x = cos(theta), and its coefficients have the exact product form

        c_l = (2l + 1) prod_{i=1..l} (N + 1 - i) / (N + 1 + i),

    so c_0 = 1, c_1 = 6j / (2j + 1) and c_l = 0 for every l > N: the
    returned series is exact and holds the N + 1 coefficients c_0 ... c_N.
    """
    big_n = 2 * _check_frame(j)
    i = np.arange(1, big_n + 1)
    ratios = (big_n + 1 - i) / (big_n + 1.0 + i)
    return LegendreSpectrum(
        (2 * np.arange(big_n + 1) + 1) * np.concatenate(([1.0], np.cumprod(ratios)))
    )


def walk_evolve(spec: LegendreSpectrum, alpha: float, n: int) -> LegendreSpectrum:
    """Advance a spectrum by n kicks of angle alpha, 0 <= alpha <= pi.

    The ring-averaging operator of a single kick has the Legendre
    polynomials as eigenfunctions, so each coefficient just scales:

        c_l(n) = c_l(0) * [P_l(cos alpha)]^n.

    c_0 is untouched (P_0 = 1), preserving normalisation exactly.
    """
    _check_record("spec", spec, LegendreSpectrum)
    alpha = _check_polar("alpha", _real("alpha", alpha))
    n = _check_count("n", n)
    gains = np.fromiter(_legendre_values(spec.l_max, math.cos(alpha)), float) ** n
    return LegendreSpectrum(spec.coeffs * gains)


def _legendre_values(l_max: int, x):
    """Yield P_0(x) ... P_l_max(x), l_max >= 1, for a number or an array x,
    by the recurrence in x - 1.

    This one evaluator gives both the kick eigenvalues P_l(cos alpha) of
    :func:`walk_evolve` and the terms of :meth:`LegendreSpectrum.reconstruct`.
    Each step adds d_k = P_(k+1) - P_k,

        d_k = ((2k + 1) / (k + 1)) (x - 1) P_k + (k / (k + 1)) d_(k-1),

    which stays accurate next to x = +-1, where Bonnet's recurrence in x
    (numpy's ``legvander``) loses up to 5.6e-12.  These are the steps of
    scipy's ``eval_legendre``, in the same order, so the two agree bit for
    bit except at |x| < 1e-5, where scipy sums a series instead.
    """
    yield 1.0
    yield x
    x_minus_1 = x - 1.0
    d, p = x_minus_1, x
    for k in range(1, l_max):
        d = ((2 * k + 1) / (k + 1)) * x_minus_1 * p + (k / (k + 1)) * d
        p = p + d
        yield p


def classical_fidelity(spec: LegendreSpectrum) -> float:
    """Average probability of a correct reading with a distributed frame.

    A frame misaligned by theta reads a known test spin correctly with
    probability cos^2(theta/2) = (P_0 + P_1)/2, so by orthogonality only the
    first two coefficients survive the average:

        F = (c_0 + c_1 / 3) / 2.
    """
    coeffs = _check_record("spec", spec, LegendreSpectrum).coeffs
    return 0.5 * (coeffs[0] + coeffs[1] / 3.0)


def classical_fidelity_series(j, alpha: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity after each walk step, n = 0 ... n_max, in one vectorised pass.

    Returns the pair ``(fidelity, closed_form)`` of float arrays over
    n = 0 ... n_max.  Only c_1 enters the fidelity and it scales by
    P_1(cos alpha) = cos(alpha) per kick, so F_C(n) = [c_0 + c_1 cos(alpha)^n / 3] / 2
    is what :func:`walk_evolve` followed by :func:`classical_fidelity` gives
    at each n; c_0 = 1 and c_1 are the two roundings :func:`initial_spectrum`
    makes, with no table.  Its error against the closed form 1/2 + A cos(alpha)^n
    (:mod:`~drfsim.spectrum`) is checked against ``ORACLE_TOL`` before the pair
    is returned.
    """
    tj = _check_frame(j)
    n_max = _check_count("n_max", n_max)
    alpha = _check_polar("alpha", _real("alpha", alpha))
    c0, c1 = 1.0, 3 * (tj / (tj + 1))  # 3 N/(N + 2) rounded once, N = 4j
    gains = np.arange(n_max + 1, dtype=float)
    np.power(math.cos(alpha), gains, out=gains)  # cos(alpha)^n
    fid = np.multiply(gains, c1)  # 0.5 (c0 + c1 gains / 3), in place
    fid /= 3.0
    fid += c0
    fid *= 0.5
    closed = gains  # 1/2 + A gains, over the gains
    closed *= _first_multipole(tj)[4]
    closed += 0.5
    error = np.subtract(fid, closed)
    np.abs(error, out=error)
    step = int(np.argmax(error))  # the first NaN, if there is one
    require(f"classical_walk.classical_fidelity_series: 2j={tj}, step {step}",
            "walk fidelity |F - F_closed|", error[step], "ORACLE_TOL")
    return fid, closed


def ring_average(thetas: np.ndarray, values: np.ndarray, alpha: float,
                 n_psi: int = 256) -> np.ndarray:
    """Grid implementation of one averaging kick (test oracle, not production).

    For each grid angle theta the operand is averaged over the ring of
    points one angular step alpha away, using the spherical law of cosines

        cos theta' = cos theta cos alpha + sin theta sin alpha cos psi,

    a uniform trapezoid rule over the ring azimuth psi and four-point
    (cubic Lagrange) interpolation of ``values`` on the theta grid.  The
    integrand depends on psi only through cos(psi), so nodes psi and
    2 pi - psi coincide: only psi in [0, pi] is evaluated, interior nodes
    counted twice.  Deliberately independent of the Legendre route.

    The grid must be theta_i = i h with h = pi / (N - 1), each node within
    ``STRUCTURE_TOL``, so the cell is found by arithmetic rather than
    search: i = floor(theta' / h), and the fraction is taken from the grid
    node, t = (theta' - theta_i) / h (t = u - floor(u) with u = theta' / h
    would carry the rounding of u, 3.6e-12 at N = 32768).  The cubic
    through nodes i - 1 ... i + 2 is evaluated by Horner's rule,
    v_i + t (b_1 + t (b_2 + t b_3)), from a (3, N) table of its Newton
    coefficients (``_cubic_table``) and ``values`` itself.  Beyond the ends the
    values are reflected evenly, v_{-1} = v_1, v_N = v_{N-2} and v_{N+1} =
    v_{N-3}, which is exact for any azimuthally symmetric distribution (it
    is even in theta about both poles).  theta' = pi gives i = N - 1 and
    t = 0, the last node's value.

    Error model: the interpolation error is O(h^4) times the fourth
    derivative; the psi sum is exact for a Legendre mode of degree below
    ``n_psi``, whose ring integrand is a trigonometric polynomial of that
    degree.  At 32768 nodes the eigenvalue law P_l(cos alpha)
    P_l(cos theta) holds to about 1e-14 for l <= 8 and below 1e-9 for
    l <= 255.  From degree ``n_psi`` on the psi sum aliases: at l = 256,
    alpha = pi/2 and 256 nodes the result is 7e-2 off, past 1e-7.  The
    cubic kernel is not positive: a point mass at the pole gives side lobes
    down to -2.5e-4 against a 2.4e-3 peak (8192 nodes, alpha = 0.9); no
    caller needs a positive result.

    The grid rows are cut into chunks of 2^15 ring points, the same on
    every host.  A standard thread pool runs W workers, one per core and at
    most one per chunk (numpy releases the interpreter lock inside each
    step).  Worker w has a buffer set of its own, allocated by the caller:
    fractions, cell indices, gathered coefficients and the Horner
    accumulator, four arrays of the chunk shape, 32 bytes per ring point:
    1 048 512 bytes (1 MiB) at the default n_psi, within a core's L2.  It
    computes chunks w, w + W, w + 2W, ..., writing their rows of the result.
    A row's arithmetic does not depend on W or on the thread, so neither
    does the result.  A worker that faults skips its later chunks, and the
    caller sees the fault of the lowest-numbered faulting worker once every
    worker has stopped.  Besides the buffers a call holds five arrays of N
    floats (the two geometry factors, the three-row table) and the result.
    Each ring's weighted terms are summed pairwise (``np.add.reduce`` along
    the row), which stays within an ulp or so of the exact mean even when
    the terms are alike, as they are near theta = 0.

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
    thetas, values = _reals("thetas", thetas), _reals("values", values)
    if thetas.ndim != 1 or thetas.shape != values.shape:
        raise DomainError("thetas and values must be 1-d arrays of equal length")
    _check_finite("values", values)
    n_grid = len(thetas)
    if n_grid < _MIN_RING_GRID:
        raise DomainError(
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
    horner = (*_cubic_table(values), values)  # b_3, b_2, b_1, v_i
    rows = min(max(1, _RING_CHUNK_POINTS // (half + 1)), n_grid)
    workers = min(_cpu_count(), -(-n_grid // rows))
    out = np.empty(n_grid)
    # imported here: at module level it loads logging into every CLI run
    from concurrent.futures import ThreadPoolExecutor

    # made by the caller: what a worker thread frees stays in that thread's
    # glibc arena, about 1 MB per worker still resident after the call
    shape = (rows, half + 1)
    buffers = [(np.empty(shape), np.empty(shape, dtype=np.intp),
                np.empty(shape), np.empty(shape)) for _ in range(workers)]

    def average(worker):
        buffer = buffers[worker]
        for start in range(worker * rows, n_grid, workers * rows):
            stop = min(start + rows, n_grid)
            t, i, g, acc = (part[: stop - start] for part in buffer)
            np.multiply(tangential[start:stop, None], cos_psi, out=t)
            t += radial[start:stop, None]
            np.clip(t, -1.0, 1.0, out=t)
            np.arccos(t, out=t)
            np.divide(t, step, out=acc)
            np.copyto(i, acc, casting="unsafe")  # theta' >= 0, so truncation is floor
            # i <= N - 1 since theta' <= pi; mode="clip" keeps take from
            # buffering its output
            np.take(thetas, i, out=g, mode="clip")
            t -= g
            t /= step
            np.take(horner[0], i, out=acc, mode="clip")
            for row in horner[1:]:
                acc *= t
                np.take(row, i, out=g, mode="clip")
                acc += g
            acc *= weights
            np.add.reduce(acc, axis=1, out=out[start:stop])  # pairwise per ring

    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(average, range(workers)):
            pass
    return out


def _cubic_table(values: np.ndarray) -> np.ndarray:
    """Rows b_3, b_2, b_1 of the cubic through v_{i-1} ... v_{i+2}, per node i.

    The cubic in t = (theta - theta_i) / h is v_i + b_1 t + b_2 t^2 + b_3 t^3
    with b_3 = d_3 / 6, b_2 = d_2 / 2 and b_1 = (v_{i+1} - v_{i-1}) / 2 - b_3,
    where d_2 = v_{i+1} - 2 v_i + v_{i-1} and d_3 = d_2(i + 1) - d_2(i).
    Values beyond the ends are the even reflections v_{-1} = v_1,
    v_N = v_{N-2} and v_{N+1} = v_{N-3}: numpy's ``reflect`` padding.
    """
    padded = np.pad(values, (1, 2), mode="reflect")  # v_{-1} ... v_{N+1}
    square = np.diff(padded, 2)  # d_2(i), i = 0 ... N
    cubic = np.diff(square) / 6.0
    linear = 0.5 * (padded[2:-1] - padded[:-3]) - cubic
    return np.array((cubic, 0.5 * square[:-1], linear))


def _cpu_count() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def angular_variance(j) -> float:
    """Variance of the misalignment angle of the starting distribution.

    The angular profile cos^(8j)(theta/2) is treated as a symmetric
    one-dimensional distribution in theta (its even extension has zero
    mean), so the variance is the plain second moment

        Var = int theta^2 f(theta) dtheta / int f(theta) dtheta

    over [0, pi].  With phi = theta/2 the profile is cos^(2N) phi, N = 4j,
    whose moment has the exact finite sum

        Var = pi^2/3 - 2 sum_{k=1..N} 1/k^2 = 2 psi_1(N + 1).

    The trigamma is evaluated in O(1): psi_1(x) = psi_1(x + 1) + 1/x^2 moves
    x = N + 1 up to x >= 30, where the asymptotic series psi_1(x) = 1/x +
    1/(2x^2) + sum_{k=1..7} B_2k / x^(2k+1), Bernoulli numbers B_2 ... B_14
    (Abramowitz & Stegun 6.4.6 and 6.4.12), is off by less than its next
    term, |B_16| / x^17 < 1e-24; ``math.fsum`` adds the shifted terms to it.
    For large j the variance tends to 1/(2j), the squared angular
    uncertainty of the aligned spin-j coherent state.
    """
    x = 2 * _check_frame(j) + 1  # N + 1
    t = 1 / max(x, 30)
    series = 0.0
    for bernoulli in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):
        series = series * t * t + bernoulli
    tail = t + t * t * (0.5 + t * series)
    return 2.0 * math.fsum([tail, *(1 / (k * k) for k in range(x, 30))])
