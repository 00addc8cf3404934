"""The channel's spectrum: its eigenvalues and every closed form read from them.

Measuring the frame's total angular momentum together with one maximally
mixed qubit is rotation invariant, whether the outcome c = +-1 (the branch
J = j + c/2) is averaged over or recorded.  So the averaged map and the two
per-outcome maps (each divided by its outcome probability) share one
multipole eigenbasis, k = 0 ... 2j.  With q = 2j + 1 their eigenvalues are
1 + x_k, where

    averaged map:  x_k  = -k(k+1) / q^2,
    outcome +1:    x+_k = -k(k+1) / (q (2j+2)),  probability p+ = (2j+2) / (2q),
    outcome -1:    x-_k = -k(k+1) / (q 2j),      probability p- = 2j / (2q),

so p+ (1 + x+_k) + p- (1 + x-_k) = 1 + x_k, and each outcome has the same
probability in every state.  On the populations of a diagonal state
(k = j + m) the averaged map is a nearest-neighbour hop across each bond at
the rate w_k of :func:`transfer_rates`, and outcome c the same hop at
w_k / (2 p_c).

The fidelity 1/2 + <m>/q reads only the k = 1 multipole, whose weight in the
aligned state is the amplitude A = 2j / (2q) = j / (2j+1).  So after n uses

    F(n) = 1/2 + A (1 + x_1)^n,  1 + x_1 = 1 - 2/q^2,

and, the per-outcome maps commuting, after K outcomes +1 among n uses

    F_K = 1/2 + A (1 + x+_1)^K (1 + x-_1)^(n-K).

The decaying part halves after ln 2 / -ln(1 + x_1) uses, about
(ln 2 / 2) q^2, and the semi-classical walk reproduces F(n) when its kick's
eigenvalue P_1(cos alpha) = cos alpha is 1 + x_1, so alpha is about 1/j.
These closed forms read the k = 1 constants of :func:`_first_multipole`, each
one correctly rounded division of exact Python integers at every 2j, with no
table; a power is taken as exp(n log1p(x)), which keeps its full relative
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular_momentum import _check_frame
from .errors import DomainError, _check_count, _holds_bool, _index

__all__ = ["MultipoleSpectrum", "transfer_rates", "multipole_spectrum", "closed_form_fidelity",
           "conditional_fidelity_table", "fitted_step", "half_life", "default_n_max"]


def transfer_rates(j) -> np.ndarray:
    """Rates w_k = (k+1)(2j-k)/q^2, k = 0 ... 2j-1, of the averaged map's hop
    across the bond between k = j + m and k+1, in either direction: the rate
    k -> k+1, (2j-k)(k+1)/q^2, is also the rate k+1 -> k.  Each entry is one
    correctly rounded division of two exact integers while q^2 < 2^53
    (2j < 94 906 265); past that q^2 is rounded to a double first."""
    tj = _check_frame(j)
    k = np.arange(tj)
    return ((k + 1) * (tj - k)) / float((tj + 1) ** 2)


@dataclass(frozen=True, eq=False)
class MultipoleSpectrum:
    """The eigenvalue offsets x_k, x+_k and x-_k (module docstring), k = 0 ... 2j,
    of the averaged and per-outcome maps, the probability p+ of outcome +1, and
    the amplitude A of the k = 1 multipole in the aligned state's fidelity."""

    averaged: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    p_plus: float
    amplitude: float


def multipole_spectrum(j) -> MultipoleSpectrum:
    """Read-only tables of x_k, x+_k and x-_k (module docstring).  Each entry is
    one correctly rounded division of two exact integers while q (2j+2) < 2^53;
    :func:`_first_multipole` gives the k = 1 entries so at every 2j."""
    tj = _check_frame(j)
    denominators, p_plus, amplitude = _spectrum_constants(tj)
    k = np.arange(tj + 1)
    tables = [-k * (k + 1) / d for d in denominators]
    for table in tables:
        table.setflags(write=False)
    return MultipoleSpectrum(*tables, p_plus=p_plus, amplitude=amplitude)


def _spectrum_constants(twice_j: int):
    """((q^2, q (2j+2), q 2j), p+, A): the three tables' denominators and the weights."""
    q = twice_j + 1
    return (q * q, q * (twice_j + 2), q * twice_j), (twice_j + 2) / (2 * q), twice_j / (2 * q)


def _first_multipole(j):
    """(x_1, x+_1, x-_1, p+, A) of :func:`multipole_spectrum`, from Python ints: no table."""
    denominators, p_plus, amplitude = _spectrum_constants(_check_frame(j))
    return (*(-2 / d for d in denominators), p_plus, amplitude)


def closed_form_fidelity(j, n):
    """F(n) of the module docstring, the fidelity after n uses from the aligned state.

    ``n`` may be a scalar or an array of step counts.  The power is taken as
    exp(n log1p(x_1)): rounding 1 + x_1 first would put a relative error of
    up to n/2 ulp into the result (3e-12 at 2j = 1000, n = 1.7e6).
    """
    x_1, _, _, _, amplitude = _first_multipole(j)
    n_arr = np.asarray(n)  # an integer array is integral: its check is the one minimum
    if n_arr.dtype == object:  # as numpy holds an int past uint64: read each int as its
        # nearest finite double, the largest 2**1024 - 2**971 (F = 1/2 past them, as at
        # n = inf), and a negative int as -1
        flat = [x if isinstance(x, float) else _index(x) for x in n_arr.flat]
        if None not in flat:  # else a bool, a string or a Fraction: refused below
            n_arr = np.array([x if isinstance(x, float) else min(max(x, -1), 2**1024 - 2**971)
                              for x in flat], dtype=float).reshape(n_arr.shape)
    kind = "b" if _holds_bool(n) else n_arr.dtype.kind  # [True, 5] reads as ints
    with np.errstate(invalid="ignore"):  # the gap is NaN where n is NaN or infinite
        gap = (0 if kind in "iu" else np.nan if kind != "f"  # a string is not parsed
               else np.abs(n_arr - np.rint(n_arr)).max(initial=0))
    if not (gap <= 0 and n_arr.min(initial=0) >= 0):
        raise DomainError(f"step count n must be a non-negative integer, got {n!r}")
    out = np.multiply(n_arr, np.log1p(x_1), out=np.empty(n_arr.shape))
    np.exp(out, out=out)
    out *= amplitude
    out += 0.5
    return out if np.ndim(n) else float(out)


def _mode2_defect(twice_j: int, populations, steps):
    """|<T2>_n - (1 - 6/q^2)^n j(2j - 1)| / (2j^2) of ``populations`` (one state a row)
    at steps n: T2(m) = 3m^2 - j(j + 1) is the averaged map's k = 2 eigenvector."""
    tm = np.arange(-twice_j, twice_j + 1, 2)
    moment = populations @ ((3 * tm * tm - twice_j * (twice_j + 2)) / 4.0)
    decay = np.exp(np.multiply(steps, np.log1p(-6 / (twice_j + 1) ** 2 if twice_j > 1 else 0.0)))
    return np.abs(moment - decay * (twice_j * (twice_j - 1) / 2)) / (twice_j * twice_j / 2)


def conditional_fidelity_table(j, n: int) -> np.ndarray:
    """F_K of the module docstring, the fidelity after n uses given K outcomes +1,
    for K = 0 ... n.

    At 2j = 1, 1 + x-_1 = 0, so F_K = 1/2 for K < n, and 0^0 = 1 leaves
    F_n = 1/2 + A (1 + x+_1)^n.
    """
    n = _check_count("n", n)
    return _count_fidelity(_first_multipole(j), n, np.arange(n + 1))


def _count_fidelity(constants, n: int, counts) -> np.ndarray:
    """F_K of :func:`conditional_fidelity_table` at ``counts`` only, from :func:`_first_multipole`.

    (n - K) log(1 + x-_1) is formed only where K < n, and where
    1 + x-_1 = 0 (2j = 1) its logarithm is set to -inf, not computed: so
    0^0 = 1 at K = n and no floating-point warning is raised.
    """
    _, plus_rate, minus_rate, _, amplitude = constants
    minus_log = np.log1p(minus_rate) if minus_rate > -1.0 else -np.inf
    minus_term = np.multiply(n - counts, minus_log, out=np.zeros(counts.shape),
                             where=counts != n)
    decay = np.exp(counts * np.log1p(plus_rate) + minus_term)
    return 0.5 + amplitude * decay


def fitted_step(j) -> float:
    """Kick angle alpha of the walk that reproduces the quantum fidelity decay:
    cos(alpha) = 1 + x_1 (module docstring)."""
    return math.acos(1.0 + _first_multipole(j)[0])


def half_life(j) -> float:
    """Steps after which the decaying part of the fidelity has halved:
    ln 2 / -ln(1 + x_1) (module docstring)."""
    return math.log(2.0) / (-math.log1p(_first_multipole(j)[0]))


def default_n_max(j) -> int:
    """Sweep length reaching the decay plateau: ceil(5 * half_life)."""
    return math.ceil(5.0 * half_life(j))
