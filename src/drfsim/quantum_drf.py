"""Evolution of a spin-j directional reference frame under repeated measurement.

Each use of the frame measures the total angular momentum of the frame plus
one maximally mixed qubit, which degrades the frame.  Averaged over outcomes
this is a channel built from eight band-structured Kraus operators; this
module iterates it exactly, and checks every step against the closed-form
decay of :mod:`~drfsim.spectrum`, the home of the channel's eigenvalues.

The channel never creates coherences, so diagonal states keep only their
2j+1 populations.  On those the averaged map is a nearest-neighbour hop in
k = j + m whose rates are integers over (2j+1)^2 (:func:`transfer_rates`);
:func:`flux_step` applies it in conservative flux form, so the total
population cannot drift systematically over long runs.  :func:`evolve`
takes up to 64 steps per kernel call, still in flux form: a banded bond
operator built by :func:`flux_step`'s arithmetic moves population across
each bond, and precomputed adjoint rows give the fidelity of every step in
between.  Recording outcome c is the same hop at w_k / (2 p_c), so diagonal states
read no Kraus band: the operators from :func:`build_kraus`, the exact
Clebsch-Gordan route, serve dense states, :func:`quantum_fidelity` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, default_rng  # loaded with the package, not mid-run

from .angular_momentum import OUTCOMES, _check_frame, cg_coefficient
from .errors import (DomainError, _check_count, _check_finite, _check_member, _check_record,
                     _index, _reals)
from .spectrum import _count_fidelity, _first_multipole, closed_form_fidelity, transfer_rates
from .tolerances import EIGENVALUE_FLOOR, MAP_TOL, STRUCTURE_TOL, require

__all__ = [
    "KrausSet",
    "FrameState",
    "build_kraus",
    "flux_step",
    "apply_map",
    "quantum_fidelity",
    "evolve",
    "conditional_update",
    "sample_trajectory",
    "sample_fidelity_batch",
]

_KEYS = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in OUTCOMES}  # of KrausSet.bands


@dataclass(frozen=True)
class KrausSet:
    """The Kraus operators E_ab^c of the frame-degradation channel.

    ``bands[(a, b, c)]`` holds the read-only values of <a|Pi_c|b> over the
    frame space, for qubit indices a, b in {0, 1} and outcome c in {+1, -1}.
    Each operator has one non-zero (off-)diagonal, at offset b - a of its
    key: E_ab^c = diag(bands[(a, b, c)], b - a).  The a = b operators are
    diagonal; the a != b operators shift m by one.  Dense states, quantum_fidelity
    and the tests read the bands; diagonal states step at exact flux rates instead.
    """

    twice_j: int = field(init=False)  # len(bands[(0, 0, 1)]) - 1
    bands: dict

    def __post_init__(self):
        if not isinstance(self.bands, dict):
            raise DomainError(f"KrausSet: bands must be a dict keyed (a, b, c), "
                              f"got {type(self.bands).__name__}")
        if self.bands.keys() != _KEYS:
            raise DomainError(f"KrausSet: keys missing "
                              f"{sorted(_KEYS - self.bands.keys())}, extra "
                              f"{sorted(self.bands.keys() - _KEYS, key=repr)}")
        first = _reals("KrausSet: band (0, 0, 1)", self.bands[(0, 0, 1)])
        if first.ndim != 1 or len(first) < 2:
            raise DomainError(f"KrausSet: band (0, 0, 1) must be a vector of at least "
                              f"2 entries, got shape {first.shape}")
        object.__setattr__(self, "twice_j", len(first) - 1)
        where = f"KrausSet: 2j={self.twice_j}"
        bands = {}
        for (a, b, c), values in self.bands.items():
            band = f"{where}: band {(a, b, c)}"
            values = _reals(band, values).copy()  # frozen below: not the caller's array
            length = self.twice_j + 1 - abs(b - a)
            if values.shape != (length,):
                raise DomainError(f"{band} must have shape ({length},), got {values.shape}")
            _check_finite(band, values)
            values.setflags(write=False)
            bands[(a, b, c)] = values
        object.__setattr__(self, "bands", bands)

    def completeness_defect(self) -> float:
        """max |(1/2) sum_cab E^dag E - I|; zero for a trace-preserving set.

        Each E^dag E is diagonal: the squared band, on the band's columns.
        """
        d = self.twice_j + 1
        acc = np.zeros(d)
        for (a, b, _), values in self.bands.items():
            acc[_span(b - a, d)] += values ** 2
        return float(np.max(np.abs(acc / 2.0 - 1.0)))

    @cached_property
    def fidelity_diagonal(self) -> np.ndarray:
        """Diagonal of (E_00^+ + E_11^-)/2, the measurement-success observable."""
        return 0.5 * (self.bands[(0, 0, +1)] + self.bands[(1, 1, -1)])


def _span(offset: int, d: int) -> slice:
    """Columns of a d x d matrix that diagonal ``offset`` fills (rows: -offset)."""
    return slice(max(offset, 0), d + min(offset, 0))


def build_kraus(j) -> KrausSet:
    """Assemble the channel's Kraus operators from two coupling columns per outcome c.

    Column a of outcome c holds <j + c/2, m + s_a | j, m; 1/2, s_a> over m (s_0 = +1/2).
    Band (a, b, c) pairs row m_k with column m_{k + b - a}, at offset b - a, and is
    column a on its rows times column b on its columns.
    """
    tj = _check_frame(j)
    d = tj + 1
    bands = {}
    for c in OUTCOMES:
        cg = [np.array([cg_coefficient(tj, tm, a, c).value for tm in range(-tj, tj + 1, 2)])
              for a in (0, 1)]
        for a in (0, 1):
            for b in (0, 1):
                bands[(a, b, c)] = cg[a][_span(a - b, d)] * cg[b][_span(b - a, d)]
    kraus = KrausSet(bands)
    require(f"quantum_drf.build_kraus: 2j={tj}", "trace preservation defect",
            kraus.completeness_defect(), "STRUCTURE_TOL")
    return kraus


_kraus = lru_cache(maxsize=32)(build_kraus)  # 2j -> the bands of dense states and the fidelity


def flux_step(populations: np.ndarray, rates: np.ndarray, out=None) -> np.ndarray:
    """One step of the averaged map on a population vector, in flux form.

    The net flow across bond k is t_k = w_k (p_k - p_{k+1}) and
    p'_k = p_k - t_k + t_{k-1}: every flow leaves one entry and enters its
    neighbour, so the total is conserved up to rounding that does not
    accumulate in one direction.  Acts along the last axis, so a stack of
    vectors steps at once with ``rates`` broadcast against its bonds.
    Writes into ``out`` when given (which may be ``populations`` itself) and
    returns it.
    """
    flux = populations[..., :-1] - populations[..., 1:]
    flux *= rates
    if out is None:
        out = populations.copy()
    else:
        out[...] = populations
    out[..., :-1] -= flux
    out[..., 1:] += flux
    return out


@dataclass(frozen=True)
class FrameState:
    """Density operator of the frame: trace-1, Hermitian, positive.

    The number of axes of ``data`` gives the representation: a vector is
    the real populations of a diagonal state, m ascending, and a matrix is
    the full complex density matrix.  Both validate on construction.
    """

    twice_j: int = field(init=False)  # len(data) - 1
    data: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.data)
        if len(shape) not in (1, 2) or shape[0] < 2 or shape[1:] not in ((), shape[:1]):
            raise DomainError(f"FrameState: data must be a vector or a square matrix of "
                              f"at least 2 rows, got shape {shape}")
        object.__setattr__(self, "twice_j", shape[0] - 1)
        where = f"FrameState: 2j={self.twice_j}"
        if len(shape) == 1:
            arr = _reals(f"{where}: populations", self.data).copy()
            require(where, "population", arr.min(), "EIGENVALUE_FLOOR", DomainError)
            require(where, "|sum of populations - 1|", abs(arr.sum() - 1.0),
                    "STRUCTURE_TOL", DomainError)
        else:
            arr = _reals(f"{where}: matrix", self.data, complex).copy()
            require(where, "Hermitian defect max |rho - rho^dag|",
                    np.max(np.abs(arr - arr.conj().T)), "STRUCTURE_TOL", DomainError)
            require(where, "|trace - 1|", abs(arr.trace().real - 1.0),
                    "STRUCTURE_TOL", DomainError)
            require(where, "eigenvalue", np.linalg.eigvalsh(arr).min(),
                    "EIGENVALUE_FLOOR", DomainError)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def stretched(cls, j) -> "FrameState":
        """The fully aligned state |j, j><j, j| (all weight at m = +j)."""
        tj = _check_frame(j)
        p = np.zeros(tj + 1)
        p[-1] = 1.0
        return cls(p)

    @classmethod
    def maximally_mixed(cls, j) -> "FrameState":
        tj = _check_frame(j)
        return cls(np.full(tj + 1, 1.0 / (tj + 1)))

    # -- views ---------------------------------------------------------------

    @property
    def diagonal(self) -> bool:
        """True when ``data`` holds populations, False when it holds the matrix."""
        return self.data.ndim == 1

    @property
    def matrix(self) -> np.ndarray:
        """Dense density matrix; exactly zero off the diagonal when diagonal."""
        if self.diagonal:
            return np.diag(self.data.astype(complex))
        return self.data

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the density matrix, m ascending."""
        if self.diagonal:
            return self.data
        return np.real(np.diagonal(self.data))


def apply_map(state: FrameState) -> FrameState:
    """One measurement's worth of averaged evolution: rho -> (1/2) sum E rho E^dag.

    Preserves trace, positivity, and the diagonal representation (the band
    structure maps diagonal states to diagonal states).  Diagonal states take
    :func:`flux_step` at the rates w_k, the step :func:`evolve` iterates, and
    read no Kraus band; dense states are sandwiched between the bands.
    """
    _check_record("state", state, FrameState)
    if state.diagonal:
        return FrameState(flux_step(state.data, transfer_rates(state.twice_j)))
    return FrameState(_sandwich(state.data, _kraus(state.twice_j), OUTCOMES))


def _sandwich(rho: np.ndarray, kraus: KrausSet, outcomes) -> np.ndarray:
    """(1/2) sum E rho E^dag over the Kraus operators of ``outcomes``, dense rho.

    E = diag(v, b - a) moves rho's block on E's columns to its rows, times v v^T.
    """
    d = rho.shape[0]
    acc = np.zeros_like(rho)
    for (a, b, c), values in kraus.bands.items():
        if c in outcomes:
            rows, cols = _span(a - b, d), _span(b - a, d)
            acc[rows, rows] += np.outer(values, values) * rho[cols, cols]
    acc /= 2.0
    return acc


def quantum_fidelity(state: FrameState) -> float:
    """Average probability of correctly reading a test spin with this frame.

    Equals (1/2) Tr[rho (E_00^+ + E_11^-)], the operators of :func:`build_kraus`;
    the observable is diagonal, so only the populations of ``state`` enter.
    """
    _check_record("state", state, FrameState)
    return float(np.dot(state.populations, _kraus(state.twice_j).fidelity_diagonal))


def _block_length(n_max: int) -> int:
    """Map steps per kernel call in :func:`evolve`.

    The largest power of two s <= 64 with (2s)^2 <= n_max, and at least 1:
    building the kernel costs O(s^2) per bond and each call saves O(s) numpy
    calls, so short runs take short blocks.
    """
    s = 1
    while s < 64 and (4 * s) ** 2 <= n_max:
        s *= 2
    return s


def _jump_kernel(rates: np.ndarray, s: int) -> np.ndarray:
    """Bond operator G of s map steps, M^s - I = -Delta G, in window storage.

    With M = I - Delta W grad, G = W grad sum_{r<s} M^r.  Row b holds
    G[b, b-s+1 ... b+s], the only columns it can reach.  Sum_r M^r is
    symmetric, so row b of grad sum_r M^r is sum_r M^r applied to the
    column e_b - e_{b+1}; all 2j columns are stepped at once by the
    arithmetic of :func:`flux_step`, each in its own window (a column here,
    so slices are contiguous), with zero rate on the bonds that leave the
    frame.  Step r reaches only entries s-2-r ... s+1+r.  The result is
    C-contiguous: the einsum of :func:`_jump` rounds by operand layout.
    """
    bonds = len(rates)
    padded = np.zeros(bonds + 2 * s - 2)
    padded[s - 1 : s - 1 + bonds] = rates
    window_rates = sliding_window_view(padded, 2 * s - 1).T  # row c: bond c of each window
    column = np.zeros((2 * s, bonds))
    column[s - 1] = 1.0
    column[s] = -1.0
    total = column.copy()
    flux = np.empty((2 * s - 1, bonds))
    for r in range(s - 1):
        lo, hi = s - 2 - r, s + 1 + r  # bonds lo ... hi-1 join entries lo ... hi
        step = np.subtract(column[lo:hi], column[lo + 1 : hi + 1], out=flux[: hi - lo])
        step *= window_rates[lo:hi]
        column[lo:hi] -= step
        column[lo + 1 : hi + 1] += step
        total[lo : hi + 1] += column[lo : hi + 1]
    total *= rates
    del column, flux  # so that the copy does not raise the peak
    return np.ascontiguousarray(total.T)


def _jump(kernel: np.ndarray, windows: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Advance ``populations`` by the s map steps of ``kernel``, in place.

    ``windows`` views the zero-padded buffer that holds ``populations``, one
    row per bond: t_b = sum_c G[b, c] p[b-s+1+c] is the net flow across bond
    b over the s steps, and p <- p - Delta t, as in :func:`flux_step`.
    """
    flux = np.einsum("bc,bc->b", kernel, windows)
    populations[:-1] -= flux
    populations[1:] += flux
    return populations


def _adjoint_rows(m: np.ndarray, rates: np.ndarray, s: int) -> np.ndarray:
    """Rows m^T M^r, r = 0 ... s-1; M is symmetric, so row r is M^r m."""
    rows = np.empty((s, len(m)))
    rows[0] = m
    for r in range(1, s):
        flux_step(rows[r - 1], rates, out=rows[r])
    return rows


def evolve(j, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the channel from the aligned state, recording fidelity per step.

    Returns the pair ``(fidelity, closed_form)``: float arrays over steps
    n = 0 ... n_max of the iterated map and of :func:`closed_form_fidelity`.

    The averaged map is M = I - Delta W grad on populations (grad: bond
    differences, W: :func:`transfer_rates`, Delta: flux divergence).  The
    populations take s steps per kernel call, p <- p - Delta (G p) with
    G = W grad sum_{r<s} M^r (:func:`_jump_kernel`), so total population
    moves only between neighbours, as in :func:`flux_step`.  The fidelity of
    every step is F_{n+r} = 1/2 + (m^T M^r p_n) / q, from s adjoint rows.
    The block length s grows with ``n_max`` (:func:`_block_length`), so a
    short run does not pay for a long kernel.

    Every step's |F - F_closed| is checked against ``MAP_TOL``,
    which also keeps the fidelity in [1/2, 1] and decaying (see its note).
    Every state held in memory (steps 0, s, 2s, ...) has its smallest
    population checked against ``EIGENVALUE_FLOOR`` and its drift from a
    total of 1 against ``STRUCTURE_TOL``.  The states in between need no check:
    M is entrywise non-negative and doubly stochastic, so
    min(M^r p) >= min(p) and 1^T M^r p = 1^T p.  The first step that fails
    raises :class:`InternalConsistencyError` naming 2j, the step, the
    observed value and the tolerance.
    """
    tj = _check_frame(j)
    n_max = _check_count("n_max", n_max)
    fidelity, s, lowest, totals = _map_fidelity(tj, n_max)
    closed = closed_form_fidelity(tj, np.arange(n_max + 1))
    _check_steps(tj, fidelity, closed, s, lowest, np.abs(totals - 1.0))
    return fidelity, closed


def _map_fidelity(twice_j: int, n_max: int):
    """The blocked iteration of :func:`evolve`: the fidelity of steps
    0 ... n_max, the block length s, and the smallest population and the
    total of each held state (steps 0, s, 2s, ...).  Held states are
    reduced s at a time from a copy the size of the adjoint rows.  The
    kernel and the adjoint rows are freed on return."""
    d = twice_j + 1
    rates = transfer_rates(twice_j)
    s = _block_length(n_max)
    kernel = _jump_kernel(rates, s)
    adjoint = _adjoint_rows(np.arange(-twice_j, twice_j + 1, 2) / 2.0, rates, s)
    padded = np.zeros(d + 2 * s - 2)
    state = padded[s - 1 : s - 1 + d]
    state[-1] = 1.0
    windows = sliding_window_view(padded, 2 * s)
    fidelity = np.empty(n_max + 1)
    held = range(0, n_max + 1, s)
    lowest = np.empty(len(held))
    totals = np.empty(len(held))
    states = np.empty((min(s, len(held)), d))  # the held states since the last check
    for i, start in enumerate(held):
        stop = min(start + s, n_max + 1)
        np.dot(adjoint[: stop - start], state, out=fidelity[start:stop])
        row = i % s
        states[row] = state
        if row == s - 1 or stop > n_max:
            np.min(states[: row + 1], axis=1, out=lowest[i - row : i + 1])
            np.sum(states[: row + 1], axis=1, out=totals[i - row : i + 1])
        if stop <= n_max:
            _jump(kernel, windows, state)
    fidelity /= twice_j + 1.0  # F = 1/2 + <m> / q, in place
    fidelity += 0.5
    return fidelity, s, lowest, totals


def _check_steps(twice_j: int, fidelity, closed, s: int, lowest, drift):
    """Raise at the first step whose held state or fidelity fails its check.

    ``lowest`` and ``drift`` (|sum p - 1|) belong to the held states, steps
    0, s, 2s, ...; the error |F - F_closed|, formed here in one array and
    freed on return, to every step.  At a held step the held-state checks
    come before the fidelity check.
    """
    error = np.subtract(fidelity, closed)
    np.abs(error, out=error)
    held_ok = (lowest >= EIGENVALUE_FLOOR) & (drift <= STRUCTURE_TOL)
    if not (error.max() <= MAP_TOL and held_ok.all()):  # a NaN error fails
        ok = error <= MAP_TOL
        ok[::s] &= held_ok
        step = int(np.argmin(ok))
        i, offset = divmod(step, s)
        where = f"quantum_drf.evolve: 2j={twice_j}, step {step}"
        if offset == 0:
            require(where, "population", lowest[i], "EIGENVALUE_FLOOR")
            require(where, "|sum of populations - 1|", drift[i], "STRUCTURE_TOL")
        require(where, f"fidelity {float(fidelity[step])!r}, |F - F_closed|",
                error[step], "MAP_TOL")


def conditional_update(state: FrameState, kraus: KrausSet, outcome: int):
    """Probability of ``outcome`` and the post-measurement frame state.

    The update keeps the measurement record: the returned state is
    (1/2) sum_ab E_ab^c rho E_ab^c{dag} / p_c with p_c its trace.  A diagonal state reads
    no band: p_c is p+ or 1 - p+, and the map :func:`flux_step` at w_k / (2 p_c).
    """
    _check_record("state", state, FrameState)
    if _check_record("kraus", kraus, KrausSet).twice_j != state.twice_j:
        raise DomainError(f"spin mismatch: state has 2j={state.twice_j}, "
                          f"kraus has 2j={kraus.twice_j}")
    outcome = _check_member("outcome", outcome, OUTCOMES)
    if state.diagonal:
        return _outcome_step(state, outcome)
    unnorm = _sandwich(state.data, kraus, (outcome,))
    prob = float(unnorm.trace().real)
    require(f"quantum_drf.conditional_update: 2j={state.twice_j}",
            f"distance outside [0, 1] of the probability of outcome {outcome:+d}",
            max(-prob, prob - 1.0), "STRUCTURE_TOL")
    return prob, FrameState(unnorm / prob)


def _outcome_step(state: FrameState, outcome: int):
    """(p_c, the state after outcome c) of a diagonal state: :func:`flux_step` at w_k / (2 p_c)."""
    prob, rates = _outcome_rates(state.twice_j, outcome)
    return prob, FrameState(flux_step(state.data, rates))


@lru_cache(maxsize=32)
def _outcome_rates(twice_j: int, outcome: int):
    """(p_c, w_k / (2 p_c)) of :func:`conditional_update`, the rates read-only."""
    p_plus = _first_multipole(twice_j)[3]
    prob = p_plus if outcome == +1 else 1.0 - p_plus
    rates = transfer_rates(twice_j) / (2.0 * prob)
    rates.setflags(write=False)
    return prob, rates


def sample_trajectory(j, n_max: int, seed):
    """Sample one measurement record and the record-conditioned final state.

    Starts from the aligned state; each outcome is +1 with probability p+ in every
    state, and the state takes that outcome's step, the one :func:`conditional_update`
    makes on a diagonal state (no Kraus set is built).  ``seed`` is an integer >= 0
    or a sequence of them, and fixes the record.

    Returns
    -------
    (outcomes, probabilities, state)
        The int array of outcomes +1 or -1 (the total-J branch observed at
        each step), the probability each had conditioned on the record
        before it, and the record-conditioned final :class:`FrameState`.
    """
    tj = _check_frame(j)
    n_max = _check_count("n_max", n_max)
    rng = _generator(seed)
    outcomes = np.where(rng.random(n_max) < _first_multipole(tj)[3], +1, -1)  # p+
    state = FrameState.stretched(tj)
    probs = np.empty(n_max)
    for step, outcome in enumerate(outcomes):
        probs[step], state = _outcome_step(state, outcome)
    return outcomes, probs, state


_CDF_SIGMAS = 40  # half-width of the count CDF's window, in standard deviations


def _count_cdf(n: int, p: float):
    """``(lo, cdf)``: the Binomial(n, p) CDF at K = lo, lo + 1, ... on the window
    [mode - r, mode + r] of [0, n], r = ceil(40 sigma) + 1.  The mass outside
    is below 2 exp(-3200 p (1 - p)) (Hoeffding), under 1e-260 for p+.

    The pmf is built out from pmf(mode) = 1 by the ratio pmf(k+1)/pmf(k) =
    (n - k) p / ((k + 1)(1 - p)), summed in order and divided by its total:
    only + - * / and one sqrt, correctly rounded, so the same bits on every CPU.
    """
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    r = math.ceil(_CDF_SIGMAS * math.sqrt(n * p * q)) + 1
    lo, hi = max(0, mode - r), min(n, mode + r)
    k = np.arange(lo, hi, dtype=float)
    ratio = (n - k) * p / ((k + 1.0) * q)  # pmf(k+1)/pmf(k) for k = lo ... hi - 1
    del k
    m = mode - lo
    pmf = np.ones(hi - lo + 1)
    np.multiply.accumulate(ratio[m:], out=pmf[m + 1:])
    np.multiply.accumulate(1.0 / ratio[:m][::-1], out=pmf[:m][::-1])  # underflows, never overflows
    np.cumsum(pmf, out=pmf)
    return lo, np.divide(pmf, pmf[-1], out=pmf)


def sample_fidelity_batch(j, n_max: int, n_samples: int, seed):
    """Monte-Carlo sample of record-conditioned fidelities after ``n_max`` uses.

    Each use gives +1 with probability p+ in every state (:mod:`~drfsim.spectrum`),
    so the count K of +1 outcomes in a record is exactly Binomial(n_max, p+).
    ``numpy.random.default_rng(seed)``, ``seed`` an integer >= 0 or a sequence
    of them, gives one uniform u per sample, and K is the least count whose
    CDF exceeds u (inversion on the table of :func:`_count_cdf`).  Sample i's
    fidelity is F_K of :func:`~drfsim.spectrum.conditional_fidelity_table`.
    :func:`sample_trajectory` draws the outcomes one by one against p+ and
    steps their flux maps, an independent check.

    Returns
    -------
    (fidelities, plus_counts)
        Measurement fidelity of each final conditional state, and the number
        of +1 outcomes in each record.
    """
    n_samples = _check_count("n_samples", n_samples, 1)
    n_max = _check_count("n_max", n_max)
    constants = _first_multipole(j)
    uniforms = _generator(seed).random(n_samples)
    lo, cdf = _count_cdf(n_max, constants[3])  # p+
    plus_counts = np.searchsorted(cdf, uniforms, side="right")
    del uniforms  # freed before the fidelities are formed: a peak of four rows
    plus_counts += lo
    return _count_fidelity(constants, n_max, plus_counts), plus_counts


def _generator(seed) -> Generator:
    """A PCG64 generator of the sampler's own, from an integer >= 0 or a sequence of them."""
    try:
        entries = seed if np.ndim(seed) == 1 else (seed,)
        if any(_index(entry) is None for entry in entries):
            raise TypeError("must be an integer >= 0 or a sequence of them")
        return default_rng(seed)
    except (TypeError, ValueError) as exc:  # -1, 2.5, nan, None, True, a Generator
        raise DomainError(f"seed {seed!r}: {exc}") from None
