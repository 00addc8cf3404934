"""Channel construction, exact decay, trajectories, and record averaging."""

import decimal
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfsim import quantum_drf
from drfsim import (
    DomainError,
    FrameState,
    InternalConsistencyError,
    MeasurementRecord,
    SpinLabel,
    apply_map,
    build_kraus,
    closed_form_fidelity,
    conditional_update,
    evolve,
    quantum_fidelity,
    sample_fidelity_batch,
    sample_trajectory,
)
from drfsim.cli import default_n_max
from drfsim.quantum_drf import flux_step, transfer_rates

from brute_force import coupled_projectors, kraus_block


def random_dense_state(rng, j):
    g = rng.normal(size=(j.dim, j.dim)) + 1j * rng.normal(size=(j.dim, j.dim))
    rho = g @ g.conj().T
    return FrameState.from_matrix(j, rho / rho.trace().real)


def random_diagonal_state(rng, j):
    p = rng.random(j.dim) + 1e-3
    return FrameState.from_populations(j, p / p.sum())


class TestBuildKraus:
    def test_half_spin_upper_diagonal(self):
        # E_00^+ = diag((j+m+1)/(2j+1)) over m = (-1/2, +1/2), from the
        # 4-dim projector oracle
        kraus = build_kraus(SpinLabel(1))
        e = kraus.operator(0, 0, +1)
        assert np.allclose(e, np.diag([0.5, 1.0]), atol=1e-15)

    def test_row_completeness(self):
        # sum_c E_00^c = I, forced by Pi_+ + Pi_- = I
        for twice_j in (1, 2, 5, 11):
            kraus = build_kraus(SpinLabel(twice_j))
            total = kraus.operator(0, 0, +1) + kraus.operator(0, 0, -1)
            assert np.allclose(total, np.eye(twice_j + 1), atol=1e-14)

    def test_trace_preservation_sum(self):
        kraus = build_kraus(SpinLabel(2))
        assert kraus.completeness_defect() < 1e-14

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5])
    def test_operators_match_projector_oracle(self, twice_j):
        kraus = build_kraus(SpinLabel(twice_j))
        oracle = {+1: coupled_projectors(twice_j)[0],
                  -1: coupled_projectors(twice_j)[1]}
        for c in (+1, -1):
            for a in (0, 1):
                for b in (0, 1):
                    got = kraus.operator(a, b, c)
                    want = kraus_block(oracle[c], a, b)
                    assert np.max(np.abs(got - want)) < 1e-12

    def test_spin_zero_rejected(self):
        with pytest.raises(DomainError):
            build_kraus(SpinLabel(0))


class TestTransferRates:
    @pytest.mark.parametrize("twice_j", range(1, 41))
    def test_rates_equal_kraus_weights(self, twice_j):
        # p'[k] = stay[k] p[k] + from_above[k] p[k+1] + from_below[k] p[k-1],
        # summed over both outcomes from the exact-CG Kraus bands
        kraus = build_kraus(SpinLabel(twice_j))
        bands = kraus.bands
        stay = sum(0.5 * bands[(a, a, c)].values ** 2 for a in (0, 1) for c in (1, -1))
        from_above = sum(0.5 * bands[(0, 1, c)].values ** 2 for c in (1, -1))
        from_below = sum(0.5 * bands[(1, 0, c)].values ** 2 for c in (1, -1))
        rates = transfer_rates(SpinLabel(twice_j))
        assert np.max(np.abs(rates - from_above)) <= 1e-15
        assert np.max(np.abs(rates - from_below)) <= 1e-15
        leave = np.zeros(twice_j + 1)
        leave[:-1] += rates
        leave[1:] += rates
        assert np.max(np.abs(1.0 - leave - stay)) <= 1e-15

    def test_flux_step_writes_in_place(self):
        rng = np.random.default_rng(3)
        j = SpinLabel(7)
        p = random_diagonal_state(rng, j).populations
        rates = transfer_rates(j)
        expected = flux_step(p, rates)
        buf = p.copy()
        assert flux_step(buf, rates, out=buf) is buf
        assert np.array_equal(buf, expected)


class TestFrameState:
    def test_stretched_and_mixed(self):
        j = SpinLabel(4)
        top = FrameState.stretched(j)
        assert top.diagonal
        assert top.populations[-1] == 1.0
        mixed = FrameState.maximally_mixed(j)
        assert np.allclose(mixed.populations, 0.2)

    def test_diagonal_matrix_has_exact_zero_offdiagonals(self):
        state = FrameState.stretched(SpinLabel(3))
        m = state.matrix.copy()
        np.fill_diagonal(m, 0.0)
        assert np.all(m == 0.0)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            FrameState.from_matrix(SpinLabel(1), bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            FrameState.from_populations(SpinLabel(1), [0.6, 0.6])

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DomainError):
            FrameState.from_matrix(SpinLabel(1), bad)


class TestApplyMap:
    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_maximally_mixed_is_fixed_point(self, twice_j):
        j = SpinLabel(twice_j)
        mixed = FrameState.maximally_mixed(j)
        mapped = apply_map(mixed, build_kraus(j))
        assert np.max(np.abs(mapped.populations - mixed.populations)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(twice_j=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_and_positivity_random_states(self, twice_j, seed):
        rng = np.random.default_rng(seed)
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        dense = apply_map(random_dense_state(rng, j), kraus)
        assert abs(dense.matrix.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(dense.matrix).min() > -1e-10
        diag = apply_map(random_diagonal_state(rng, j), kraus)
        assert abs(diag.populations.sum() - 1.0) < 1e-12

    def test_diagonal_closure_is_exact(self):
        rng = np.random.default_rng(7)
        j = SpinLabel(6)
        state = apply_map(random_diagonal_state(rng, j), build_kraus(j))
        assert state.diagonal
        off = state.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0)

    def test_dense_route_matches_diagonal_route(self):
        rng = np.random.default_rng(11)
        j = SpinLabel(9)
        kraus = build_kraus(j)
        diag = random_diagonal_state(rng, j)
        via_diag = apply_map(diag, kraus).populations
        via_dense = apply_map(diag.to_dense(), kraus).populations
        assert np.max(np.abs(via_diag - via_dense)) < 1e-14

    def test_one_step_fidelity_matches_closed_form(self):
        j = SpinLabel(5)
        kraus = build_kraus(j)
        state = apply_map(FrameState.stretched(j), kraus)
        assert quantum_fidelity(state, kraus) == pytest.approx(
            closed_form_fidelity(j, 1), abs=1e-14
        )

    def test_spin_mismatch_rejected(self):
        with pytest.raises(DomainError):
            apply_map(FrameState.stretched(SpinLabel(2)), build_kraus(SpinLabel(3)))


class TestQuantumFidelity:
    def test_aligned_spin_one(self):
        j = SpinLabel(2)
        value = quantum_fidelity(FrameState.stretched(j), build_kraus(j))
        assert value == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_maximally_mixed_carries_no_information(self):
        j = SpinLabel(8)
        value = quantum_fidelity(FrameState.maximally_mixed(j), build_kraus(j))
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_large_frame_is_nearly_ideal(self):
        j = SpinLabel(200)
        value = quantum_fidelity(FrameState.stretched(j), build_kraus(j))
        assert 1.0 - value < 1e-2


class TestClosedFormFidelity:
    def test_frozen_values_half_spin(self):
        assert closed_form_fidelity(SpinLabel(1), 0) == pytest.approx(0.75, abs=1e-15)
        assert closed_form_fidelity(SpinLabel(1), 1) == pytest.approx(0.625, abs=1e-15)

    def test_long_time_limit_is_half(self):
        assert closed_form_fidelity(SpinLabel(3), 10**6) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("twice_j,n", [(200, 70008), (1000, 1736334), (5000, 10**7)])
    def test_long_runs_match_decimal_power(self, twice_j, n):
        # rounding 1 - 2/q^2 before the power once cost 3.2e-12 at 2j = 1000
        q = twice_j + 1
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            base = decimal.Decimal(q * q - 2) / (q * q)
            exact = decimal.Decimal(1) / 2 + decimal.Decimal(twice_j) / (2 * q) * base**n
        assert abs(closed_form_fidelity(SpinLabel(twice_j), n) - float(exact)) <= 1e-15

    def test_vectorised_over_steps(self):
        steps = np.arange(5)
        values = closed_form_fidelity(SpinLabel(4), steps)
        assert values.shape == (5,)
        assert np.all(np.diff(values) < 0)

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError):
            closed_form_fidelity(SpinLabel(2), -1)


class TestEvolve:
    def test_tracks_closed_form(self):
        series = evolve(SpinLabel(10), 100)
        assert series.max_abs_diff <= 1e-10

    def test_zero_steps(self):
        j = SpinLabel(7)
        series = evolve(j, 0)
        assert len(series.steps) == 1
        assert series.fidelity[0] == pytest.approx(
            0.5 + j.j / (2.0 * j.j + 1.0), abs=1e-14
        )

    def test_monotone_decay(self):
        series = evolve(SpinLabel(3), 400)
        assert np.all(np.diff(series.fidelity) <= 1e-15)

    def test_default_length_at_2j_200(self):
        # once failed at step 54127: float trace drift crossed 1e-12
        j = SpinLabel(200)
        series = evolve(j, default_n_max(j))
        assert len(series.steps) == 70009
        assert series.trace_drift <= 1e-14
        assert series.max_abs_diff <= 1e-12

    def test_fidelity_matches_kraus_observable(self):
        j = SpinLabel(6)
        kraus = build_kraus(j)
        series = evolve(j, 30)
        state = FrameState.stretched(j)
        for n in range(31):
            assert series.fidelity[n] == pytest.approx(
                quantum_fidelity(state, kraus), abs=1e-15
            )
            state = apply_map(state, kraus)

    @pytest.mark.parametrize("fault,tolerance", [
        (lambda out: out.__setitem__(0, -1e-9), "EIGENVALUE_FLOOR"),
        (lambda out: out.__setitem__(0, out[0] + 1e-11), "STRUCTURE_TOL"),
        (lambda out: out.__setitem__(slice(None), out[::-1]), "ORACLE_TOL"),
    ])
    def test_failing_step_is_named(self, monkeypatch, fault, tolerance):
        # corrupt only step 1100 (inside the second block of checks)
        calls = []

        def faulty_step(populations, rates, out=None):
            out = flux_step(populations, rates, out)
            calls.append(None)
            if len(calls) == 1100:
                fault(out)
            return out

        monkeypatch.setattr(quantum_drf, "flux_step", faulty_step)
        with pytest.raises(InternalConsistencyError) as excinfo:
            evolve(SpinLabel(10), 2000)
        message = str(excinfo.value)
        assert "2j=10" in message
        assert "step 1100" in message
        assert tolerance in message

    def test_spin_zero_rejected(self):
        with pytest.raises(DomainError):
            evolve(SpinLabel(0), 5)

    def test_series_validation_names_the_step(self):
        j = SpinLabel(4)
        steps = np.arange(4)
        fidelity = np.array([0.9, 0.8, 0.85, 0.7])
        series = quantum_drf.FidelitySeries(j, steps, fidelity, fidelity)
        pattern = r"2j=4, step 2: .*STRUCTURE_TOL"
        with pytest.raises(InternalConsistencyError, match=pattern):
            series.require_valid()


class TestTrajectories:
    def test_deterministic_for_fixed_seed(self):
        rec1, state1 = sample_trajectory(SpinLabel(4), 30, seed=99)
        rec2, state2 = sample_trajectory(SpinLabel(4), 30, seed=99)
        assert np.array_equal(rec1.outcomes, rec2.outcomes)
        assert np.array_equal(rec1.probabilities, rec2.probabilities)
        assert np.array_equal(state1.populations, state2.populations)

    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_first_step_probability_matches_coupled_trace(self, twice_j):
        # p_+ = Tr[Pi_+ (rho (x) I/2)] via the dense projector oracle
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        p_plus, _ = conditional_update(FrameState.stretched(j), kraus, +1)
        pi_plus, _ = coupled_projectors(twice_j)
        rho = np.zeros((j.dim, j.dim))
        rho[-1, -1] = 1.0
        joint = np.kron(rho, np.eye(2) / 2.0)
        assert p_plus == pytest.approx(float(np.trace(pi_plus @ joint)), abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        j = SpinLabel(3)
        kraus = build_kraus(j)
        state = FrameState.stretched(j)
        for _ in range(5):
            p_plus, state_plus = conditional_update(state, kraus, +1)
            p_minus, _ = conditional_update(state, kraus, -1)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            state = state_plus

    def test_record_fields_are_consistent(self):
        record, _ = sample_trajectory(SpinLabel(2), 25, seed=5)
        assert len(record) == 25
        assert set(np.unique(record.outcomes)) <= {-1, 1}
        assert record.probabilities.min() >= 0.0
        assert record.probabilities.max() <= 1.0

    def test_record_validation(self):
        with pytest.raises(DomainError):
            MeasurementRecord(np.array([1, -1]), np.array([0.5]))
        with pytest.raises(DomainError):
            MeasurementRecord(np.array([2]), np.array([0.5]))
        with pytest.raises(DomainError):
            MeasurementRecord(np.array([1]), np.array([1.5]))

    def test_batch_of_one_reproduces_single_trajectory(self):
        j = SpinLabel(4)
        fid, n_plus = sample_fidelity_batch(j, 20, 1, seed=123)
        record, state = sample_trajectory(j, 20, seed=123)
        kraus = build_kraus(j)
        assert fid[0] == pytest.approx(quantum_fidelity(state, kraus), abs=1e-14)
        assert n_plus[0] == int(np.sum(record.outcomes == 1))

    def test_batch_mean_near_closed_form(self):
        fid, _ = sample_fidelity_batch(SpinLabel(4), 10, 4000, seed=2)
        closed = closed_form_fidelity(SpinLabel(4), 10)
        stderr = fid.std(ddof=1) / np.sqrt(len(fid))
        assert abs(fid.mean() - closed) < 4.0 * stderr


class TestRecordAveraging:
    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4])
    def test_exhaustive_records_reproduce_the_map(self, twice_j):
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        for n in (1, 2, 4):
            averaged = np.zeros(j.dim)
            for outcomes in itertools.product((+1, -1), repeat=n):
                state = FrameState.stretched(j)
                weight = 1.0
                for c in outcomes:
                    prob, state = conditional_update(state, kraus, c)
                    weight *= prob
                averaged += weight * state.populations
            mapped = FrameState.stretched(j)
            for _ in range(n):
                mapped = apply_map(mapped, kraus)
            assert np.max(np.abs(averaged - mapped.populations)) < 1e-12
