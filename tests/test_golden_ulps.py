"""Every golden fidelity cell against its exact value, in ulps.

The golden outputs are rebuilt in-process (``build_outputs`` of
``tests/golden/regenerate.py``).  Each cell of five columns is compared with
its exact value, taken in 40-digit ``mpmath`` from the closed forms of the
``drfsim.spectrum`` docstring, with q = 2j + 1, A = 2j/(2q) and lam = 1 - 2/q^2:

- ``F_Q_map`` and ``F_Q_closed``: 1/2 + A lam^n;
- ``F_C``: 1/2 + A cos(alpha)^n, at the double alpha that ``fitted_step`` returns;
- ``F_conditional`` of ``trajectories``: 1/2 + A (1 + x+_1)^K (1 + x-_1)^(n-K),
  with K = ``n_plus`` and n the default n_max;
- ``half_life`` of ``scaling``: ln 2 / -ln lam.

Every row is checked for 2j <= 20, and 4001 evenly spread rows past that.
The same check of ``evolve`` at 2j = 1000, over its default n_max, is marked slow.

How each bound is derived
-------------------------
u = 2^-53 is the unit roundoff.  It is also the ulp of every F in [1/2, 1), so
an F cell's error is counted in u; a half-life's error is counted in its own ulp,
which exceeds u times the half-life.  A correctly rounded operation errs by at
most u |x|, where x is its exact result.  numpy's own accuracy tests hold float64
``exp``, ``log1p``, ``log`` and ``cos`` within 1 ulp of the correctly rounded
value; the libm behind ``math`` and ``pow`` is assumed to do as well.  So such a
call errs by at most 1.5 ulp, that is 3u |x|.  Rounding x to x (1 + d) moves
ln(1 + x) by kappa d relative to it, kappa = x / ((1 + x) ln(1 + x)), and kappa
<= 1/ln 2 for x >= -1/2.  A relative error e of an exponent y = n ln(lam) < 0 moves
e^y by at most e |y| e^y <= e / e_1 in all, where e_1 = 2.718... is Euler's number.

- ``F_Q_closed`` is 1/2 + A exp(n log1p(x_1)).  x_1 = -2/q^2 is rounded once,
  log1p adds 3u, and the product with n adds u, so y is off by (kappa + 4) u |y|.
  exp adds 3u, and the rounded A and the product add u each.  The final + 1/2
  rounds to within u/2.  Bound: 1/2 + A ((kappa + 4)/e_1 + 5), below 4.01.
- ``F_conditional`` is the same, but its exponent K L+ + (n - K) L- takes
  (kappa + 3) u from each log1p, u from each product and u from their sum,
  whose two terms have one sign.  Bound: 1/2 + A ((kappa + 5)/e_1 + 5), below 4.2.
  At 2j = 1, 1 + x-_1 = 0, so no log of it is formed and its power is exact.
- ``F_C`` is (1 + c1 pow(c, n)/3)/2, with c = fl(cos alpha) and c1 = 3 (2j/q)
  rounded twice.  pow adds 3u, c1 adds 2u, and the product and the division add
  u each: 7u on 2A c^n, halved.  The + 1 rounds in [1, 2) to within u, halved.
  The rounding of cos itself, dc = |c - cos alpha|, is taken exactly in mpmath.
  The n-th power amplifies it to A n dc c'^(n-1) <= A dc / (e_1 c' (-ln c')),
  where c' = max(c, cos alpha).  Bound: 1/2 + 7A + A dc / (e_1 c' (-ln c') u).
- ``half_life`` is log(2) / -log1p(x_1): 3u, then (kappa + 3) u, then u for the
  division.  Bound: kappa + 7 ulps, below 8.5.
- ``F_Q_map`` is fl(fl(<m>/q) + 1/2).  The division and the sum round to within
  u/2 each, since |<m>/q| <= A < 1/2: 1 ulp.  <m> comes from the populations
  p, which take one jump of s map steps at a time (s = ``_block_length``), and
  from the adjoint rows M^r m, r < s.  m is an eigenvector of the symmetric
  map M, with M m = lam m.  So an error e made in p moves every later <m> by
  lam^r (m . e), r steps later: it decays with the signal.  There are four
  sources of error:

  1. The jump kernel G is rounded once, and its column sums should be exactly
     (lam^s - 1) m.  Their largest error eps_K is taken exactly in mpmath from
     the kernel that ``evolve`` builds.  It moves <m> by at most eps_K at each
     jump, with the same sign each time.  After k jumps that is at most
     eps_K L_k, where L_k = sum_{i<k} lam^(s i).
  2. Each jump rounds each population twice (p -= t, then p += t), each by at
     most u p_k.  Each flux t_b = sum_c G_bc p_c is a 2s-term sum whose partial
     sums are at most g_b = sum_c |G_bc| p_c <= w_b sum_{r<s} ((M^r p)_b +
     (M^r p)_(b+1)), and a flux error enters <m> with weight 1.  With
     w_b <= 1/4 and |M^r p| <= |p|, sum_b g_b^2 <= s^2 P / 4.  Here
     P = sum_k p_k^2 is the purity: P(h) = sum_k v_k(top)^2 mu_k^(2h), from
     the eigenpairs (mu_k, v_k) of the tridiagonal M.  It never grows, since M
     is symmetric and doubly stochastic.
  3. Adjoint row r takes r flux steps from m.  Each step rounds each entry four
     times, and each of those values is at most j.
  4. The read-out of 2j + 1 products rounds each product, and it rounds 2j
     partial sums of size at most j.

  Taken at its worst, source 2 alone allows (2j + s^2)/q ulps per jump, over
  the q^2/(2s) jumps that the k = 1 mode remembers: over 100 ulps at 2j = 20,
  where a one-sided 1e-15 defect in the flux moves F by only 11 ulps.  So
  sources 2 to 4 are treated as independent rounding errors of mean zero,
  each uniform within its bound: variance u^2 x^2 / 3 for a result x.  With b = (j/q)^2 <= 1/4, in units of
  u^2, their variances are as follows:
  - a jump from held step h adds (2b/3 + s^3 / (6 q^2)) P(h), which lam^2
    shrinks at each later step;
  - row r adds (4r/3) b P(h);
  - the read-out adds (b/3) P(h) + 2j b/3.
  Bound: 1 + eps_K lam^r L_k / (q u) + 3 sigma, where sigma is the standard
  deviation of that sum.  The largest bound over the rows is used.  It is 6.8
  at 2j = 20, 30 at 2j = 200 and 141 at 2j = 1000.  ``MAP_TOL`` allows about 900.
"""

import functools
import json
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from drfsim import default_n_max, evolve, fitted_step, transfer_rates
from drfsim.quantum_drf import _block_length, _jump_kernel
from golden import regenerate

U = 2.0 ** -53
E = math.e
SPREAD_ROWS = 4001  # rows checked in each table past 2j = 20
DIGITS = 40


@pytest.fixture(scope="module")
def outputs():
    return regenerate.build_outputs()


def _kappa(x) -> float:
    """Relative change of ln(1 + x) per relative change of x."""
    return x / ((1.0 + x) * math.log1p(x))


def _constants(twice_j):
    """(q, A, x_1, x+_1, x-_1) as mpmath numbers, from the exact rationals."""
    q = twice_j + 1
    one = mpmath.mpf(1)
    return (q, one * twice_j / (2 * q), -2 * one / q**2,
            -2 * one / (q * (twice_j + 2)), -2 * one / (q * twice_j))


def _split(value):
    """``value`` as a pair of doubles whose sum is within 2^-106 of it."""
    hi = float(value)
    return hi, float(value - hi)


@functools.cache
def _decay_series(twice_j, base_name, steps):
    """(hi, lo) arrays of 1/2 + A base^n over ``steps``: the map's and the walk's F."""
    with mpmath.workdps(DIGITS):
        _, amplitude, x_1, _, _ = _constants(twice_j)
        base = 1 + x_1 if base_name == "map" else mpmath.cos(mpmath.mpf(fitted_step(twice_j)))
        pairs = [_split(mpmath.mpf(0.5) + amplitude * base**n) for n in steps]
    return np.array(pairs).T


@functools.cache
def _conditional(twice_j, n, count):
    with mpmath.workdps(DIGITS):
        _, amplitude, _, x_plus, x_minus = _constants(twice_j)
        return _split(mpmath.mpf(0.5) + amplitude * (1 + x_plus)**count
                      * (1 + x_minus)**(n - count))


def _half_life(twice_j):
    with mpmath.workdps(DIGITS):
        return _split(mpmath.log(2) / -mpmath.log1p(_constants(twice_j)[2]))


def closed_bound(twice_j):
    amplitude = twice_j / (2 * (twice_j + 1))
    return 0.5 + amplitude * ((_kappa(-2 / (twice_j + 1) ** 2) + 4) / E + 5)


def conditional_bound(twice_j):
    q = twice_j + 1
    rates = [-2 / (q * (twice_j + 2))] + ([-2 / (q * twice_j)] if twice_j > 1 else [])
    return 0.5 + twice_j / (2 * q) * ((max(map(_kappa, rates)) + 5) / E + 5)


def walk_bound(twice_j):
    amplitude = twice_j / (2 * (twice_j + 1))
    alpha = fitted_step(twice_j)
    with mpmath.workdps(DIGITS):
        exact = mpmath.cos(mpmath.mpf(alpha))
        rounding = float(abs(mpmath.mpf(math.cos(alpha)) - exact))
        top = float(max(exact, mpmath.mpf(math.cos(alpha))))
    return 0.5 + 7 * amplitude + amplitude * rounding / (E * top * -math.log(top) * U)


def half_life_bound(twice_j):
    return _kappa(-2 / (twice_j + 1) ** 2) + 7


@functools.cache
def map_bound(twice_j, n_max):
    """The largest ``F_Q_map`` bound over steps 0 ... n_max (module docstring)."""
    q, j = twice_j + 1, twice_j / 2
    s = _block_length(n_max)
    rates = transfer_rates(twice_j)
    lam = 1.0 - 2.0 / q**2
    kernel = _jump_kernel(rates, s)  # row b holds columns b - s + 1 ... b + s
    with mpmath.workdps(DIGITS):
        sums = [mpmath.mpf(0)] * (twice_j + 1)
        for b, row in enumerate(kernel.tolist()):
            for c, value in enumerate(row, start=b - s + 1):
                if 0 <= c <= twice_j:
                    sums[c] += value
        gain = (1 - 2 * mpmath.mpf(1) / q**2) ** s - 1
        eps_kernel = float(max(abs(total - gain * (c - mpmath.mpf(j)))
                               for c, total in enumerate(sums)))
    mu, vectors = eigh_tridiagonal(1.0 - np.append(rates, 0.0) - np.append(0.0, rates), rates)
    held = np.arange(0, n_max + 1, s)
    purity = np.empty(len(held))
    weights, shrink = vectors[-1] ** 2, mu ** (2 * s)
    for i in range(len(held)):
        purity[i] = weights.sum()
        weights *= shrink
    b = (j / q) ** 2
    inject = (2 * b / 3 + s**3 / (6 * q**2)) * purity
    drift, jumps = np.zeros(len(held)), np.zeros(len(held))  # variance, and L_k
    for k in range(1, len(held)):
        drift[k] = drift[k - 1] * lam ** (2 * s) + inject[k - 1]
        jumps[k] = jumps[k - 1] * lam**s + 1.0
    r = np.arange(s)
    variance = (drift[:, None] * lam ** (2 * r) + (4 * r / 3 * b + b / 3) * purity[:, None]
                + twice_j * b / 3)
    bound = 1.0 + eps_kernel * jumps[:, None] * lam**r / (q * U) + 3.0 * np.sqrt(variance)
    return float(bound[held[:, None] + r <= n_max].max())


def _ulps(cells, exact, ulp=U):
    hi, lo = exact
    return np.abs((cells - hi) - lo) / ulp


def _rows(data: bytes, twice_j: int):
    """Header and the checked rows (all of them for 2j <= 20) as a float array."""
    lines = data.decode().splitlines()
    picks = np.arange(1, len(lines))
    if twice_j > 20 and len(picks) > SPREAD_ROWS:
        picks = np.unique(np.linspace(1, len(lines) - 1, SPREAD_ROWS).round().astype(int))
    return lines[0].split(","), np.array([[float(cell or "nan") for cell in lines[i].split(",")]
                                           for i in picks])  # scaling's first ratio is empty


def cell_errors(name: str, data: bytes):
    """{column: (worst error in ulps, its bound)} for the checked columns of one output."""
    if name.startswith("scaling"):
        header, rows = _rows(data, 0)
        found = [(_ulps(life, _half_life(tj), math.ulp(life)), half_life_bound(tj))
                 for tj, life in rows[:, [header.index("twice_j"), header.index("half_life")]]
                 .tolist()]
        return {"half_life": max(found, key=lambda pair: pair[0] - pair[1])}
    twice_j = int(re.search(r"-2j(\d+)", name).group(1))
    header, rows = _rows(data, twice_j)
    if "F_conditional" in header:
        n = default_n_max(twice_j)
        exact = np.array([_conditional(twice_j, n, count)
                          for count in rows[:, header.index("n_plus")].astype(int).tolist()]).T
        return {"F_conditional": (_ulps(rows[:, header.index("F_conditional")], exact).max(),
                                  conditional_bound(twice_j))}
    steps = tuple(rows[:, 0].astype(int).tolist())
    found = {}
    for column, series, bound in (
            ("F_Q_map", "map", lambda: map_bound(twice_j, steps[-1])),
            ("F_Q_closed", "map", lambda: closed_bound(twice_j)),
            ("F_C", "walk", lambda: walk_bound(twice_j))):
        if column in header:
            errors = _ulps(rows[:, header.index(column)], _decay_series(twice_j, series, steps))
            found[column] = (errors.max(), bound())
    return found


CHECKED = sorted(name for name in json.loads(regenerate.MANIFEST.read_text(encoding="utf-8"))
                 ["outputs"] if name.startswith(("quantum-evolve", "classical-walk", "compare",
                                                 "trajectories", "scaling")))


@pytest.mark.parametrize("name", CHECKED)
def test_cells_are_within_their_ulp_bounds(outputs, name):
    found = cell_errors(name, outputs[name])
    over = {column: pair for column, pair in found.items() if not pair[0] <= pair[1]}
    assert found and not over, f"{name}: (worst error, bound) in ulps {over}"


@pytest.mark.slow
def test_evolve_at_2j_1000_is_within_its_ulp_bound():
    twice_j = 1000
    n_max = default_n_max(twice_j)
    fidelity, closed = evolve(twice_j, n_max)
    steps = tuple(np.unique(np.linspace(0, n_max, SPREAD_ROWS).round().astype(int)).tolist())
    exact = _decay_series(twice_j, "map", steps)
    for column, values, bound in (("F_Q_map", fidelity, map_bound(twice_j, n_max)),
                                  ("F_Q_closed", closed, closed_bound(twice_j))):
        worst = _ulps(values[list(steps)], exact).max()
        assert worst <= bound, f"{column}: {worst} ulps, bound {bound}"
