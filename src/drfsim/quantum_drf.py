"""Evolution of a spin-j directional reference frame under repeated measurement.

Each use of the frame measures the total angular momentum of the frame plus
one maximally mixed qubit, which degrades the frame.  Averaged over outcomes
this is a channel built from eight band-structured Kraus operators; its
measurement fidelity obeys a closed-form geometric decay which this module
both iterates exactly and evaluates directly.

The channel never creates coherences, so diagonal states keep only their
2j+1 populations.  On those the averaged map is a nearest-neighbour hop in
k = j + m whose rates are integers over (2j+1)^2 (:func:`transfer_rates`);
:func:`flux_step` applies it in conservative flux form, so the total
population cannot drift systematically over long runs.  The Kraus operators
from :func:`build_kraus` remain the exact Clebsch-Gordan route: they serve
dense states, record-conditioned updates and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular_momentum import CouplingBranch, SpinLabel, as_spin, projector_element
from .errors import DomainError, InternalConsistencyError
from .tolerances import EIGENVALUE_FLOOR, ORACLE_TOL, STRUCTURE_TOL

__all__ = [
    "Band",
    "KrausSet",
    "FrameState",
    "MeasurementRecord",
    "FidelitySeries",
    "build_kraus",
    "transfer_rates",
    "flux_step",
    "apply_map",
    "quantum_fidelity",
    "closed_form_fidelity",
    "evolve",
    "conditional_update",
    "sample_trajectory",
    "sample_fidelity_batch",
]

OUTCOMES = (+1, -1)  # total-J branch drawn in a measurement: J = j +- 1/2
_PROB_SLACK = 1e-12


class Band:
    """A matrix with a single non-zero (off-)diagonal: M = diag(values, offset)."""

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: np.ndarray):
        self.offset = int(offset)
        self.values = np.asarray(values, dtype=float)
        self.values.setflags(write=False)

    def dense(self, dim: int) -> np.ndarray:
        if len(self.values) != dim - abs(self.offset):
            raise DomainError("band length does not match dimension")
        return np.diag(self.values, k=self.offset)

    def sandwich(self, rho: np.ndarray) -> np.ndarray:
        """Return M rho M^dag for dense rho (all band values are real)."""
        d = rho.shape[0]
        out = np.zeros_like(rho)
        v = self.values
        o = self.offset
        block = np.outer(v, v)
        if o == 0:
            out[:, :] = block * rho
        elif o > 0:
            out[:-o, :-o] = block * rho[o:, o:]
        else:
            out[-o:, -o:] = block * rho[:o, :o]
        return out


@dataclass(frozen=True)
class KrausSet:
    """The Kraus operators E_ab^c of the frame-degradation channel.

    ``bands[(a, b, c)]`` holds <a|Pi_c|b> as a :class:`Band` over the frame
    space, for qubit indices a, b in {0, 1} and outcome c in {+1, -1}.
    The a = b operators are diagonal; the a != b operators shift m by one.
    """

    j: SpinLabel
    bands: dict

    def operator(self, a: int, b: int, outcome: int) -> np.ndarray:
        """Dense matrix of E_ab^c."""
        return self.bands[(a, b, outcome)].dense(self.j.dim)

    def completeness_defect(self) -> float:
        """max |(1/2) sum_cab E^dag E - I|; zero for a trace-preserving set."""
        d = self.j.dim
        acc = np.zeros((d, d))
        for band in self.bands.values():
            e = band.dense(d)
            acc += e.T @ e
        return float(np.max(np.abs(acc / 2.0 - np.eye(d))))

    @cached_property
    def fidelity_diagonal(self) -> np.ndarray:
        """Diagonal of (E_00^+ + E_11^-)/2, the measurement-success observable."""
        return 0.5 * (self.bands[(0, 0, +1)].values + self.bands[(1, 1, -1)].values)

    def _conditional_weights(self, outcome: int):
        """(stay, from_above, from_below) population weights for one recorded outcome.

        p'[k] = stay[k] p[k] + from_above[k] p[k+1] + from_below[k] p[k-1],
        unnormalised: the weights include the channel's global factor 1/2.
        """
        stay = 0.5 * (
            self.bands[(0, 0, outcome)].values ** 2
            + self.bands[(1, 1, outcome)].values ** 2
        )
        up = 0.5 * self.bands[(0, 1, outcome)].values ** 2
        down = 0.5 * self.bands[(1, 0, outcome)].values ** 2
        return stay, up, down


def build_kraus(j) -> KrausSet:
    """Assemble the channel's Kraus operators from projector matrix elements.

    Requires 2j >= 1 (the J = j - 1/2 branch must exist).
    """
    j = as_spin(j)
    if j.twice_j < 1:
        raise DomainError("build_kraus requires 2j >= 1; j = 0 has no lower branch")
    tm = j.twice_m_values
    bands = {}
    for c, branch in ((+1, CouplingBranch.PLUS), (-1, CouplingBranch.MINUS)):
        for a in (0, 1):
            for b in (0, 1):
                offset = (b - a)  # a=0,b=1 shifts m up by one column
                if offset == 0:
                    vals = [
                        projector_element(j, branch, a, b, m, m) for m in tm
                    ]
                elif offset == 1:
                    vals = [
                        projector_element(j, branch, a, b, tm[k], tm[k + 1])
                        for k in range(j.dim - 1)
                    ]
                else:
                    vals = [
                        projector_element(j, branch, a, b, tm[k + 1], tm[k])
                        for k in range(j.dim - 1)
                    ]
                bands[(a, b, c)] = Band(offset, np.array(vals))
    kraus = KrausSet(j, bands)
    defect = kraus.completeness_defect()
    if defect > STRUCTURE_TOL:
        raise InternalConsistencyError(
            f"quantum_drf.build_kraus: trace preservation defect {defect:.3e}"
        )
    return kraus


def transfer_rates(j) -> np.ndarray:
    """Hop rates of the averaged map on populations, from integers.

    With k = j + m, population moves k -> k+1 at A_k = (2j-k)(k+1)/q^2 and
    k -> k-1 at B_k = k(2j-k+1)/q^2, q = 2j+1.  Since A_k = B_{k+1}, one
    array w_k = (k+1)(2j-k)/q^2, k = 0 ... 2j-1, carries both: it is the
    rate across the bond between k and k+1, in either direction.  Each entry
    is one correctly rounded division of two exact integers.
    """
    j = as_spin(j)
    k = np.arange(j.twice_j)
    return ((k + 1) * (j.twice_j - k)) / float((j.twice_j + 1) ** 2)


def flux_step(populations: np.ndarray, rates: np.ndarray, out=None) -> np.ndarray:
    """One step of the averaged map on a population vector, in flux form.

    The net flow across bond k is t_k = w_k (p_k - p_{k+1}) and
    p'_k = p_k - t_k + t_{k-1}: every flow leaves one entry and enters its
    neighbour, so the total is conserved up to rounding that does not
    accumulate in one direction.  Writes into ``out`` when given (which may
    be ``populations`` itself) and returns it.
    """
    flux = populations[:-1] - populations[1:]
    flux *= rates
    if out is None:
        out = populations.copy()
    else:
        out[...] = populations
    out[:-1] -= flux
    out[1:] += flux
    return out


@dataclass(frozen=True)
class FrameState:
    """Density operator of the frame: trace-1, Hermitian, positive.

    ``data`` is a real population vector when ``diagonal`` is True, otherwise
    the full complex matrix.  Both representations validate on construction.
    """

    j: SpinLabel
    data: np.ndarray
    diagonal: bool

    def __post_init__(self):
        d = self.j.dim
        if self.diagonal:
            arr = np.array(self.data, dtype=float)
            if arr.shape != (d,):
                raise DomainError(f"populations must have shape ({d},)")
            if arr.min() < EIGENVALUE_FLOOR:
                raise DomainError(f"negative population {arr.min():.3e}")
            if abs(arr.sum() - 1.0) > STRUCTURE_TOL:
                raise DomainError(f"populations sum to {arr.sum()!r}, not 1")
        else:
            arr = np.array(self.data, dtype=complex)
            if arr.shape != (d, d):
                raise DomainError(f"matrix must have shape ({d}, {d})")
            if np.max(np.abs(arr - arr.conj().T)) > STRUCTURE_TOL:
                raise DomainError("matrix is not Hermitian")
            if abs(arr.trace().real - 1.0) > STRUCTURE_TOL:
                raise DomainError(f"trace is {arr.trace().real!r}, not 1")
            if np.linalg.eigvalsh(arr).min() < EIGENVALUE_FLOOR:
                raise DomainError("matrix has a significantly negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def stretched(cls, j) -> "FrameState":
        """The fully aligned state |j, j><j, j| (all weight at m = +j)."""
        j = as_spin(j)
        p = np.zeros(j.dim)
        p[-1] = 1.0
        return cls(j, p, diagonal=True)

    @classmethod
    def maximally_mixed(cls, j) -> "FrameState":
        j = as_spin(j)
        return cls(j, np.full(j.dim, 1.0 / j.dim), diagonal=True)

    @classmethod
    def from_populations(cls, j, populations) -> "FrameState":
        return cls(as_spin(j), populations, diagonal=True)

    @classmethod
    def from_matrix(cls, j, matrix) -> "FrameState":
        return cls(as_spin(j), matrix, diagonal=False)

    # -- views ---------------------------------------------------------------

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

    def to_dense(self) -> "FrameState":
        return FrameState(self.j, self.matrix, diagonal=False)


def _require_same_spin(state: FrameState, kraus: KrausSet):
    if state.j != kraus.j:
        raise DomainError(
            f"spin mismatch: state has {state.j}, Kraus set has {kraus.j}"
        )


def apply_map(state: FrameState, kraus: KrausSet) -> FrameState:
    """One measurement's worth of averaged evolution: rho -> (1/2) sum E rho E^dag.

    Preserves trace, positivity, and the diagonal representation (the band
    structure maps diagonal states to diagonal states).  Diagonal states take
    :func:`flux_step`, the same step :func:`evolve` iterates; dense states
    are sandwiched between the Kraus operators.
    """
    _require_same_spin(state, kraus)
    if state.diagonal:
        out = flux_step(state.data, transfer_rates(state.j))
        return FrameState.from_populations(state.j, out)
    acc = np.zeros_like(state.data)
    for band in kraus.bands.values():
        acc += band.sandwich(state.data)
    return FrameState.from_matrix(state.j, acc / 2.0)


def quantum_fidelity(state: FrameState, kraus: KrausSet) -> float:
    """Average probability of correctly reading a test spin with this frame.

    Equals (1/2) Tr[rho (E_00^+ + E_11^-)]; the observable is diagonal, so
    only the populations of ``state`` enter.
    """
    _require_same_spin(state, kraus)
    return float(np.dot(state.populations, kraus.fidelity_diagonal))


def closed_form_fidelity(j, n):
    """Exact measurement fidelity after n measurements from the aligned state.

        F(n) = 1/2 + [j / (2j+1)] * (1 - 2/(2j+1)^2)^n

    ``n`` may be a scalar or an array of step counts.  The power is taken as
    exp(n log1p(-2/q^2)): rounding 1 - 2/q^2 first would put a relative
    error of up to n/2 ulp into the result (3e-12 at 2j = 1000, n = 1.7e6).
    """
    j = as_spin(j)
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise DomainError("step count must be non-negative")
    q = j.twice_j + 1.0
    amp = j.twice_j / (2.0 * q)
    decay = np.exp(n_arr * np.log1p(-2.0 / q**2))
    out = 0.5 + amp * decay
    return out if np.ndim(n) else float(out)


@dataclass(frozen=True)
class FidelitySeries:
    """Per-step fidelities of one computed route next to the closed form.

    ``trace_drift`` is the largest |sum p - 1| over the iterated population
    vectors, for routes that carry them; None otherwise.
    """

    j: SpinLabel
    steps: np.ndarray
    fidelity: np.ndarray
    closed_form: np.ndarray
    trace_drift: float | None = None

    def __post_init__(self):
        if not (len(self.steps) == len(self.fidelity) == len(self.closed_form)):
            raise DomainError("series columns must have equal length")

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(np.abs(self.fidelity - self.closed_form)))

    def require_valid(self):
        """Check range [1/2, 1] and monotone decay of the computed route.

        A failure names 2j, the first offending step, the value and
        ``STRUCTURE_TOL``.
        """
        f = self.fidelity
        outside = (f < 0.5 - STRUCTURE_TOL) | (f > 1.0 + STRUCTURE_TOL)
        if outside.any():
            i = int(np.argmax(outside))
            raise InternalConsistencyError(
                f"2j={self.j.twice_j}, step {self.steps[i]}: fidelity {float(f[i])!r} "
                f"outside [1/2, 1] by more than STRUCTURE_TOL = {STRUCTURE_TOL:g}"
            )
        rises = np.diff(f) > STRUCTURE_TOL
        if rises.any():
            i = int(np.argmax(rises)) + 1
            raise InternalConsistencyError(
                f"2j={self.j.twice_j}, step {self.steps[i]}: fidelity rises by "
                f"{f[i] - f[i - 1]:.3e}, more than STRUCTURE_TOL = {STRUCTURE_TOL:g}"
            )


# States held at once by evolve: the checks run on whole blocks of steps.
_BLOCK_STEPS = 1024


def evolve(j, n_max: int) -> FidelitySeries:
    """Iterate the channel from the aligned state, recording fidelity per step.

    Populations advance by :func:`flux_step`; the fidelity of each state is
    F = 1/2 + <m>/q.  Every state is checked, a block of steps at a time:
    its smallest population against ``EIGENVALUE_FLOOR``, its total against
    ``STRUCTURE_TOL`` and its fidelity against the closed form within
    ``ORACLE_TOL``.  The first step that fails raises
    :class:`InternalConsistencyError` naming 2j, the step, the observed
    value and the tolerance.
    """
    j = as_spin(j)
    if j.twice_j < 1:
        raise DomainError("evolve requires 2j >= 1")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    rates = transfer_rates(j)
    m = j.twice_m_values / 2.0
    q = j.twice_j + 1.0
    steps = np.arange(n_max + 1)
    closed = closed_form_fidelity(j, steps)
    fmap = np.empty(n_max + 1)
    block = np.empty((min(_BLOCK_STEPS, n_max + 1), j.dim))
    state = np.zeros(j.dim)
    state[-1] = 1.0
    drift = 0.0
    for start in range(0, n_max + 1, _BLOCK_STEPS):
        rows = block[: min(_BLOCK_STEPS, n_max + 1 - start)]
        for n, row in enumerate(rows, start):
            if n:
                flux_step(state, rates, out=row)
            else:
                row[...] = state
            state = row
        fmap[start : start + len(rows)] = 0.5 + (rows @ m) / q
        drift = max(drift, _check_block(j, start, rows, fmap, closed))
        state = rows[-1].copy()
    series = FidelitySeries(j, steps, fmap, closed, trace_drift=drift)
    series.require_valid()
    return series


def _check_block(j: SpinLabel, start: int, rows, fidelity, closed) -> float:
    """Check the states of steps start, start+1, ...; return their largest drift."""
    stop = start + len(rows)
    lowest = rows.min(axis=1)
    totals = rows.sum(axis=1)
    drift = np.abs(totals - 1.0)
    error = np.abs(fidelity[start:stop] - closed[start:stop])
    ok = (lowest >= EIGENVALUE_FLOOR) & (drift <= STRUCTURE_TOL) & (error <= ORACLE_TOL)
    if ok.all():
        return float(drift.max())
    i = int(np.argmin(ok))
    if not lowest[i] >= EIGENVALUE_FLOOR:
        broken = (f"population {float(lowest[i])!r} is below "
                  f"EIGENVALUE_FLOOR = {EIGENVALUE_FLOOR:g}")
    elif not drift[i] <= STRUCTURE_TOL:
        broken = (f"populations sum to {float(totals[i])!r}; "
                  f"|sum - 1| = {drift[i]:.3e} exceeds STRUCTURE_TOL = {STRUCTURE_TOL:g}")
    else:
        broken = (f"fidelity {float(fidelity[start + i])!r} strays {error[i]:.3e} "
                  f"from the closed form, beyond ORACLE_TOL = {ORACLE_TOL:g}")
    raise InternalConsistencyError(
        f"quantum_drf.evolve: 2j={j.twice_j}, step {start + i}: {broken}"
    )


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome string of a kept measurement record.

    ``outcomes[i]`` is +1 or -1 (the total-J branch observed at step i) and
    ``probabilities[i]`` is the probability that outcome had, conditioned on
    the record before it.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        out = np.asarray(self.outcomes, dtype=int)
        prob = np.asarray(self.probabilities, dtype=float)
        if out.shape != prob.shape:
            raise DomainError("outcomes and probabilities must have equal length")
        if out.size and not np.all(np.isin(out, OUTCOMES)):
            raise DomainError("outcomes must be +1 or -1")
        if prob.size and (prob.min() < 0.0 or prob.max() > 1.0):
            raise DomainError("probabilities must lie in [0, 1]")
        out.setflags(write=False)
        prob.setflags(write=False)
        object.__setattr__(self, "outcomes", out)
        object.__setattr__(self, "probabilities", prob)

    def __len__(self) -> int:
        return len(self.outcomes)


def conditional_update(state: FrameState, kraus: KrausSet, outcome: int):
    """Probability of ``outcome`` and the post-measurement frame state.

    The update keeps the measurement record: the returned state is
    (1/2) sum_ab E_ab^c rho E_ab^c{dag} / p_c with p_c its trace.
    """
    _require_same_spin(state, kraus)
    if outcome not in OUTCOMES:
        raise DomainError(f"outcome must be +1 or -1, got {outcome}")
    if state.diagonal:
        stay, up, down = kraus._conditional_weights(outcome)
        p = state.data
        unnorm = stay * p
        unnorm[:-1] += up * p[1:]
        unnorm[1:] += down * p[:-1]
        prob = float(unnorm.sum())
        _check_probability(prob)
        return prob, FrameState.from_populations(state.j, unnorm / prob)
    acc = np.zeros_like(state.data)
    for (a, b, c), band in kraus.bands.items():
        if c == outcome:
            acc += band.sandwich(state.data)
    acc /= 2.0
    prob = float(acc.trace().real)
    _check_probability(prob)
    return prob, FrameState.from_matrix(state.j, acc / prob)


def _check_probability(prob: float):
    if not -_PROB_SLACK <= prob <= 1.0 + _PROB_SLACK:
        raise InternalConsistencyError(
            f"outcome probability {prob!r} outside [0, 1]"
        )


def sample_trajectory(j, n_max: int, seed):
    """Sample one measurement record and the record-conditioned final state.

    Starts from the aligned state; at each step the outcome is drawn with its
    true probability and the state is updated conditionally.  Deterministic
    for a fixed ``seed`` (anything acceptable to ``numpy.random.default_rng``).

    Returns
    -------
    (MeasurementRecord, FrameState)
    """
    j = as_spin(j)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    rng = np.random.default_rng(seed)
    kraus = build_kraus(j)
    state = FrameState.stretched(j)
    outcomes = np.empty(n_max, dtype=int)
    probs = np.empty(n_max)
    for step in range(n_max):
        p_plus, state_plus = conditional_update(state, kraus, +1)
        if rng.random() < p_plus:
            outcomes[step], probs[step], state = +1, p_plus, state_plus
        else:
            _, state_minus = conditional_update(state, kraus, -1)
            outcomes[step], probs[step], state = -1, 1.0 - p_plus, state_minus
    return MeasurementRecord(outcomes, probs), state


def sample_fidelity_batch(j, n_max: int, n_samples: int, seed):
    """Vectorised trajectory sampling for Monte-Carlo fidelity averages.

    Evolves ``n_samples`` record-conditioned population vectors in lockstep
    (one uniform draw per trajectory per step, so a batch of one reproduces
    :func:`sample_trajectory` exactly for the same seed).

    Returns
    -------
    (fidelities, plus_counts)
        Measurement fidelity of each final conditional state, and the number
        of +1 outcomes in each record.
    """
    j = as_spin(j)
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    kraus = build_kraus(j)
    w_plus = kraus._conditional_weights(+1)
    w_minus = kraus._conditional_weights(-1)

    def branch(pop, weights):
        stay, up, down = weights
        out = stay * pop
        out[:, :-1] += up * pop[:, 1:]
        out[:, 1:] += down * pop[:, :-1]
        return out

    pop = np.zeros((n_samples, j.dim))
    pop[:, -1] = 1.0
    plus_counts = np.zeros(n_samples, dtype=int)
    for _ in range(n_max):
        cand_plus = branch(pop, w_plus)
        cand_minus = branch(pop, w_minus)
        p_plus = cand_plus.sum(axis=1)
        if p_plus.min() < -_PROB_SLACK or p_plus.max() > 1.0 + _PROB_SLACK:
            raise InternalConsistencyError("outcome probability outside [0, 1]")
        take_plus = rng.random(n_samples) < p_plus
        plus_counts += take_plus
        pop = np.where(
            take_plus[:, None],
            cand_plus / p_plus[:, None],
            cand_minus / (1.0 - p_plus)[:, None],
        )
    fidelities = pop @ kraus.fidelity_diagonal
    return fidelities, plus_counts
