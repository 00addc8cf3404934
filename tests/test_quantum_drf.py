"""Channel construction, exact decay, trajectories, and record averaging."""

import decimal
import functools
import itertools
import json
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.stats import binom, chisquare

from drfsim import quantum_drf, spectrum
from drfsim import (
    DomainError,
    FrameState,
    InternalConsistencyError,
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
from drfsim.angular_momentum import projector_element
from drfsim.quantum_drf import OUTCOMES, _span, flux_step
from drfsim.spectrum import (
    conditional_fidelity_table,
    default_n_max,
    multipole_spectrum,
    transfer_rates,
)
from drfsim.selftest import _random_dense_state, _random_diagonal_state
from drfsim.tolerances import MAP_TOL, ORACLE_TOL, STRUCTURE_TOL

from brute_force import (
    coupled_projectors,
    exact_averaged_step,
    exact_map_fidelities,
    exact_outcome_step,
    flux_loop,
    jump_kernel_reference,
    kraus_block,
    kraus_operator,
    rotation,
)
from golden import regenerate

PINNED_STREAMS = json.loads(regenerate.MANIFEST.read_text(encoding="utf-8"))["plus_counts"]


class TestBuildKraus:
    def test_half_spin_upper_diagonal(self):
        # E_00^+ = diag((j+m+1)/(2j+1)) over m = (-1/2, +1/2), from the
        # 4-dim projector oracle
        kraus = build_kraus(SpinLabel(1))
        e = kraus_operator(kraus, 0, 0, +1)
        assert np.allclose(e, np.diag([0.5, 1.0]), atol=1e-15)

    def test_row_completeness(self):
        # sum_c E_00^c = I, forced by Pi_+ + Pi_- = I
        for twice_j in (1, 2, 5, 11):
            kraus = build_kraus(SpinLabel(twice_j))
            total = kraus_operator(kraus, 0, 0, +1) + kraus_operator(kraus, 0, 0, -1)
            assert np.allclose(total, np.eye(twice_j + 1), atol=1e-14)

    def test_trace_preservation_sum(self):
        kraus = build_kraus(SpinLabel(2))
        assert kraus.completeness_defect() < 1e-14

    @pytest.mark.parametrize("twice_j", [*range(1, 21), 200])
    def test_completeness_defect_equals_the_dense_sum(self, twice_j):
        # max |(1/2) sum E^dag E - I| over the dense operators is the reference
        kraus = build_kraus(SpinLabel(twice_j))
        acc = np.zeros((twice_j + 1, twice_j + 1))
        for a, b, c in kraus.bands:
            e = kraus_operator(kraus, a, b, c)
            acc += e.T @ e
        dense = float(np.max(np.abs(acc / 2.0 - np.eye(twice_j + 1))))
        assert kraus.completeness_defect() == dense

    def test_bands_are_read_only(self):
        kraus = build_kraus(SpinLabel(3))
        for values in kraus.bands.values():
            assert not values.flags.writeable

    def test_holds_the_int_2j(self):
        for kraus in (build_kraus(3), build_kraus(SpinLabel(3)),
                      quantum_drf.KrausSet(build_kraus(3).bands)):
            assert type(kraus.twice_j) is int and kraus.twice_j == 3

    def test_callers_bands_stay_writable(self):
        # the set freezes copies of the bands, not the caller's own arrays
        bands = {key: values.copy() for key, values in build_kraus(SpinLabel(3)).bands.items()}
        kraus = quantum_drf.KrausSet(bands)
        assert all(values.flags.writeable for values in bands.values())
        assert all(not values.flags.writeable for values in kraus.bands.values())

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5])
    def test_operators_match_projector_oracle(self, twice_j):
        kraus = build_kraus(SpinLabel(twice_j))
        oracle = {+1: coupled_projectors(twice_j)[0],
                  -1: coupled_projectors(twice_j)[1]}
        for c in (+1, -1):
            for a in (0, 1):
                for b in (0, 1):
                    got = kraus_operator(kraus, a, b, c)
                    want = kraus_block(oracle[c], a, b)
                    assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("twice_j", [*range(1, 21), 200])
    def test_bands_equal_projector_elements_bit_for_bit(self, twice_j):
        # the int64 views tell the sign of a zero apart
        j = SpinLabel(twice_j)
        tm = np.arange(-twice_j, twice_j + 1, 2)
        kraus = build_kraus(j)
        for (a, b, c), values in kraus.bands.items():
            rows, cols = tm[_span(a - b, j.dim)], tm[_span(b - a, j.dim)]
            want = np.array([projector_element(j, c, a, b, row, col)
                             for row, col in zip(rows, cols)])
            assert np.array_equal(values.view(np.int64), want.view(np.int64)), (a, b, c)

    def test_completeness_failure_names_size_and_tolerance(self, monkeypatch):
        exact_coefficient = quantum_drf.cg_coefficient
        monkeypatch.setattr(quantum_drf, "cg_coefficient", lambda *args: SimpleNamespace(
            value=math.sqrt(1.001) * exact_coefficient(*args).value))
        with pytest.raises(InternalConsistencyError,
                           match=r"build_kraus: 2j=5: .*STRUCTURE_TOL"):
            build_kraus(SpinLabel(5))

    def test_nan_element_is_rejected_with_its_band(self, monkeypatch):
        # refused with its band, before a NaN completeness defect is formed
        monkeypatch.setattr(quantum_drf, "cg_coefficient",
                            lambda *args: SimpleNamespace(value=np.nan))
        with pytest.raises(DomainError, match=r"^KrausSet: 2j=5: band \(0, 0, 1\) must be "
                                              r"finite \(it holds nan or inf\)$"):
            build_kraus(SpinLabel(5))


class TestTransferRates:
    @pytest.mark.parametrize("twice_j", range(1, 41))
    def test_rates_equal_kraus_weights(self, twice_j):
        # p'[k] = stay[k] p[k] + from_above[k] p[k+1] + from_below[k] p[k-1],
        # summed over both outcomes from the exact-CG Kraus bands
        kraus = build_kraus(SpinLabel(twice_j))
        bands = kraus.bands
        stay = sum(0.5 * bands[(a, a, c)] ** 2 for a in (0, 1) for c in (1, -1))
        from_above = sum(0.5 * bands[(0, 1, c)] ** 2 for c in (1, -1))
        from_below = sum(0.5 * bands[(1, 0, c)] ** 2 for c in (1, -1))
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
        p = _random_diagonal_state(rng, 7).populations
        rates = transfer_rates(j)
        expected = flux_step(p, rates)
        buf = p.copy()
        assert flux_step(buf, rates, out=buf) is buf
        assert np.array_equal(buf, expected)


class TestFrameState:
    def test_holds_the_int_2j(self):
        p = [0.0, 0.0, 0.0, 1.0]
        for state in (FrameState(p), FrameState(np.diag(p)), FrameState(np.ones(4) / 4),
                      FrameState.stretched(SpinLabel(3)), FrameState.maximally_mixed(3)):
            assert type(state.twice_j) is int and state.twice_j == 3

    def test_stretched_and_mixed(self):
        j = SpinLabel(4)
        top = FrameState.stretched(j)
        assert top.diagonal
        assert top.populations[-1] == 1.0
        mixed = FrameState.maximally_mixed(j)
        assert np.allclose(mixed.populations, 0.2)

    @pytest.mark.parametrize("shape, diagonal", [
        ("(d,)", True), ("(d, d)", False),
        ("()", None), ("(d, 1)", None), ("(1, d)", None), ("(d, d, 1)", None),
        ("(1,)", None), ("(1, 1)", None), ("(d, d - 1)", None),
    ])
    def test_representation_follows_the_axes_of_the_data(self, shape, diagonal):
        j = SpinLabel(3)
        p = FrameState.stretched(j).populations
        m = np.diag(p)
        data = {"(d,)": p, "(d, d)": m, "()": 1.0, "(d, 1)": p[:, None],
                "(1, d)": p[None], "(d, d, 1)": m[..., None], "(1,)": [1.0],
                "(1, 1)": [[1.0]], "(d, d - 1)": m[:, 1:]}[shape]
        if diagonal is None:
            message = ("FrameState: data must be a vector or a square matrix of at least "
                       f"2 rows, got shape {np.shape(data)}")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                FrameState(data)
        else:
            state = FrameState(data)
            assert state.diagonal is diagonal
            assert np.array_equal(state.data, data)

    @pytest.mark.parametrize("twice_j", [*range(1, 7), 20, 200])
    def test_maps_keep_the_representation_and_its_route(self, twice_j):
        # a vector takes the flux step at each map's rates, a matrix the
        # Kraus sandwich: each route gives its own bits, and the two agree
        # to rounding
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        diagonal = _random_diagonal_state(np.random.default_rng(twice_j), twice_j)
        dense = FrameState(diagonal.matrix)
        mapped = apply_map(diagonal)
        assert mapped.diagonal
        assert np.array_equal(mapped.data, flux_step(diagonal.data, transfer_rates(j)))
        mapped_dense = apply_map(dense)
        assert not mapped_dense.diagonal
        assert np.array_equal(mapped_dense.data,
                              quantum_drf._sandwich(dense.data, kraus, OUTCOMES))
        gaps = [mapped.populations - mapped_dense.populations]
        p_plus = multipole_spectrum(j).p_plus
        for outcome in OUTCOMES:
            (p, after), (p_dense, after_dense) = (conditional_update(state, kraus, outcome)
                                                  for state in (diagonal, dense))
            assert after.diagonal and not after_dense.diagonal
            assert p == (p_plus if outcome == +1 else 1.0 - p_plus)
            assert np.array_equal(after.data,
                                  flux_step(diagonal.data, transfer_rates(j) / (2 * p)))
            unnorm = quantum_drf._sandwich(dense.data, kraus, (outcome,))
            assert p_dense == float(unnorm.trace().real)
            assert np.array_equal(after_dense.data, unnorm / p_dense)
            gaps += [[p - p_dense], after.populations - after_dense.populations]
        assert np.max(np.abs(np.concatenate(gaps))) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("twice_j", range(1, 9))
    def test_diagonal_outcome_step_matches_the_exact_table(self, twice_j):
        # the flux step at w_k / (2 p_c) against the j (x) 1/2 coupling table
        # in exact rationals: the probability and the normalised populations
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        rng = np.random.default_rng(twice_j)
        for _ in range(3):
            state = _random_diagonal_state(rng, twice_j)
            exact_in = [Fraction(float(v)) for v in state.data]
            for outcome in OUTCOMES:
                p, after = conditional_update(state, kraus, outcome)
                unnorm = exact_outcome_step(twice_j, exact_in, outcome == +1)
                total = sum(unnorm)
                assert abs(p - float(total)) <= 4 * np.finfo(float).eps
                exact_out = np.array([float(v / total) for v in unnorm])
                assert np.max(np.abs(after.data - exact_out)) <= 4 * np.finfo(float).eps

    def test_diagonal_matrix_has_exact_zero_offdiagonals(self):
        state = FrameState.stretched(SpinLabel(3))
        m = state.matrix.copy()
        np.fill_diagonal(m, 0.0)
        assert np.all(m == 0.0)


class TestMultipoleSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(twice_j=st.integers(min_value=1, max_value=1000))
    def test_averaged_entries_are_eigenvalues_of_the_hop_matrix(self, twice_j):
        # the averaged map on populations is symmetric tridiagonal: off the
        # diagonal the bond rates w_k, on it 1 - w_{k-1} - w_k
        rates = transfer_rates(SpinLabel(twice_j))
        diagonal = 1.0 - np.append(rates, 0.0) - np.append(0.0, rates)
        eigenvalues = eigh_tridiagonal(diagonal, rates, eigvals_only=True)
        want = np.sort(1.0 + multipole_spectrum(SpinLabel(twice_j)).averaged)
        assert np.max(np.abs(eigenvalues - want)) <= STRUCTURE_TOL

    @pytest.mark.parametrize("twice_j", range(1, 13))
    @pytest.mark.parametrize("plus", [True, False])
    def test_outcome_entries_are_eigenvalues_of_the_exact_outcome_map(self, twice_j, plus):
        # column i of the unnormalised per-outcome map is its image of the
        # basis population e_i, in exact rationals
        dim = twice_j + 1
        columns = [
            exact_outcome_step(twice_j, [Fraction(int(i == k)) for k in range(dim)], plus)
            for i in range(dim)
        ]
        matrix = np.array(columns, dtype=float).T
        eigenvalues = np.linalg.eigvals(matrix)
        assert np.max(np.abs(eigenvalues.imag)) <= STRUCTURE_TOL
        spectrum = multipole_spectrum(SpinLabel(twice_j))
        if plus:
            want = spectrum.p_plus * (1.0 + spectrum.plus)
        else:
            want = (1.0 - spectrum.p_plus) * (1.0 + spectrum.minus)
        assert np.max(np.abs(np.sort(eigenvalues.real) - np.sort(want))) <= STRUCTURE_TOL

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 12, 40, 200, 1000])
    def test_outcome_eigenvalues_sum_to_the_averaged_ones(self, twice_j):
        s = multipole_spectrum(SpinLabel(twice_j))
        total = s.p_plus * (1.0 + s.plus) + (1.0 - s.p_plus) * (1.0 + s.minus)
        assert np.max(np.abs(total - (1.0 + s.averaged))) <= STRUCTURE_TOL

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 1000])
    def test_entries_are_correctly_rounded_fractions(self, twice_j):
        s = multipole_spectrum(SpinLabel(twice_j))
        q = twice_j + 1
        k = range(q)
        assert list(s.averaged) == [float(Fraction(-i * (i + 1), q * q)) for i in k]
        assert list(s.plus) == [float(Fraction(-i * (i + 1), q * (q + 1))) for i in k]
        assert list(s.minus) == [float(Fraction(-i * (i + 1), q * (q - 1))) for i in k]
        assert s.p_plus == float(Fraction(q + 1, 2 * q))
        assert s.amplitude == float(Fraction(q - 1, 2 * q))

    def test_first_multipole_is_bit_identical_to_the_inline_constants(self):
        # the k = 1 rates and weights as written out in double precision
        for tj in range(1, 2001):
            s = multipole_spectrum(SpinLabel(tj))
            q = tj + 1.0
            assert s.averaged[1] == -2.0 / q**2
            assert 1.0 + s.averaged[1] == 1.0 - 2.0 / q**2
            assert s.plus[1] == -2.0 / ((tj + 1) * (tj + 2))
            assert s.minus[1] == -2.0 / ((tj + 1) * tj)
            assert s.p_plus == (tj + 2) / (2.0 * (tj + 1))
            assert s.amplitude == tj / (2.0 * q)
            assert spectrum._first_multipole(tj) == (
                s.averaged[1], s.plus[1], s.minus[1], s.p_plus, s.amplitude)

    def test_tables_are_read_only(self):
        s = multipole_spectrum(SpinLabel(4))
        for table in (s.averaged, s.plus, s.minus):
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestApplyMap:
    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_maximally_mixed_is_fixed_point(self, twice_j):
        j = SpinLabel(twice_j)
        mixed = FrameState.maximally_mixed(j)
        # dense, so the Kraus bands act: the uniform vector has no flux to step
        mapped = apply_map(FrameState(mixed.matrix))
        assert np.max(np.abs(mapped.matrix - mixed.matrix)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(twice_j=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_and_positivity_random_states(self, twice_j, seed):
        rng = np.random.default_rng(seed)
        dense = apply_map(_random_dense_state(rng, twice_j))
        assert abs(dense.matrix.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(dense.matrix).min() > -1e-10
        diag = apply_map(_random_diagonal_state(rng, twice_j))
        assert abs(diag.populations.sum() - 1.0) < 1e-12

    def test_diagonal_closure_is_exact(self):
        rng = np.random.default_rng(7)
        j = SpinLabel(6)
        # dense, so the Kraus sandwich runs rather than the diagonal flux step
        state = apply_map(FrameState(_random_diagonal_state(rng, 6).matrix))
        off = state.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0)

    def test_dense_route_matches_diagonal_route(self):
        rng = np.random.default_rng(11)
        diag = _random_diagonal_state(rng, 9)
        via_diag = apply_map(diag).populations
        via_dense = apply_map(FrameState(diag.matrix)).populations
        assert np.max(np.abs(via_diag - via_dense)) < 1e-14

    def test_one_step_fidelity_matches_closed_form(self):
        j = SpinLabel(5)
        state = apply_map(FrameState.stretched(j))
        assert quantum_fidelity(state) == pytest.approx(
            closed_form_fidelity(j, 1), abs=1e-14
        )


TILT_SIZES = [1, 2, 3, 6, 10, 20, 40]
TILT_ANGLES = (0.3, math.pi / 2.0, 2.8)


def _tilted_aligned(j, u):
    """The aligned state |j, j><j, j| turned by the rotation ``u``, dense."""
    aligned = FrameState.stretched(j).matrix
    return FrameState(u @ aligned @ u.conj().T)


def _tilted_fidelity(state, kraus, u):
    """Fidelity read along the turned axis: Tr[U O U^dag rho], O the
    diagonal measurement-success observable."""
    observable = u @ np.diag(kraus.fidelity_diagonal) @ u.conj().T
    return float(np.real(np.trace(observable @ state.matrix)))


class TestTiltedFrames:
    # The channel and both outcome maps commute with rotations of the frame,
    # so a frame turned by exp(-i beta Jy) and read along its own axis decays
    # as the aligned one.  Its dense state has coherences in every band, so
    # these tests reach the whole Kraus sandwich, not only its diagonal.

    @pytest.mark.parametrize("twice_j", TILT_SIZES)
    def test_maps_commute_with_rotations(self, twice_j):
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        rho = _random_dense_state(np.random.default_rng(twice_j), twice_j)
        worst = 0.0
        for beta in TILT_ANGLES:
            u = rotation(twice_j, beta)
            turned = FrameState(u @ rho.matrix @ u.conj().T)
            pairs = [(apply_map(turned), apply_map(rho))]
            for outcome in OUTCOMES:
                p_turned, after_turned = conditional_update(turned, kraus, outcome)
                p, after = conditional_update(rho, kraus, outcome)
                worst = max(worst, abs(p_turned - p))
                pairs.append((after_turned, after))
            for got, mapped in pairs:
                want = u @ mapped.matrix @ u.conj().T
                worst = max(worst, np.max(np.abs(got.matrix - want)))
        assert worst <= STRUCTURE_TOL

    @pytest.mark.parametrize("twice_j", TILT_SIZES)
    def test_tilted_decay_follows_the_closed_form(self, twice_j):
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        closed = closed_form_fidelity(j, np.arange(41))
        for beta in TILT_ANGLES:
            u = rotation(twice_j, beta)
            state = _tilted_aligned(j, u)
            for n in range(41):
                error = abs(_tilted_fidelity(state, kraus, u) - closed[n])
                assert error <= ORACLE_TOL, f"2j={twice_j}, beta={beta}, n={n}: {error}"
                state = apply_map(state)

    @pytest.mark.parametrize("twice_j", TILT_SIZES)
    def test_tilted_record_follows_the_count_fidelity(self, twice_j):
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        outcomes = np.random.default_rng(twice_j).choice(OUTCOMES, size=20)
        plus_counts = np.cumsum(outcomes == 1)
        for beta in TILT_ANGLES:
            u = rotation(twice_j, beta)
            state = _tilted_aligned(j, u)
            for n, outcome in enumerate(outcomes, 1):
                _, state = conditional_update(state, kraus, outcome)
                want = conditional_fidelity_table(j, n)[plus_counts[n - 1]]
                error = abs(_tilted_fidelity(state, kraus, u) - want)
                assert error <= ORACLE_TOL, f"2j={twice_j}, beta={beta}, n={n}: {error}"


class TestQuantumFidelity:
    def test_aligned_spin_one(self):
        j = SpinLabel(2)
        value = quantum_fidelity(FrameState.stretched(j))
        assert value == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_maximally_mixed_carries_no_information(self):
        j = SpinLabel(8)
        value = quantum_fidelity(FrameState.maximally_mixed(j))
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_large_frame_is_nearly_ideal(self):
        j = SpinLabel(200)
        value = quantum_fidelity(FrameState.stretched(j))
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

    @pytest.mark.parametrize("twice_j", [1, 2, 20, 200, 1000])
    def test_never_rises_at_the_slow_sweep_sizes(self, twice_j):
        # MAP_TOL implies a monotone, in-range evolve only if the closed form
        # it is checked against is monotone and in range
        j = SpinLabel(twice_j)
        closed = closed_form_fidelity(j, np.arange(default_n_max(j) + 1))
        assert np.all(np.diff(closed) <= 0.0)
        assert 0.5 <= closed[-1] and closed[0] < 1.0

    @pytest.mark.parametrize("n", [10**20, default_n_max(SpinLabel(10**12)),
                                   pytest.param([2**64], id="list-2**64"),
                                   pytest.param([10**20, 3], id="list-10**20-3")])
    def test_integers_past_uint64_are_read_as_doubles(self, n):
        # numpy holds an int >= 2**64 as an object, alone or in a list; at
        # 2j = 10**12 the default sweep ends at n = 1.7e24
        twice_j = 10**12
        steps = n if isinstance(n, list) else [n]
        with decimal.localcontext(decimal.Context(prec=60)):
            q = decimal.Decimal(twice_j + 1)
            exact = [decimal.Decimal("0.5") + twice_j / (2 * q) * (1 - 2 / q**2) ** k
                     for k in steps]
        got = np.atleast_1d(closed_form_fidelity(SpinLabel(twice_j), n))
        assert got.shape == (len(steps),)
        assert np.max(np.abs(got - [float(e) for e in exact])) <= 1e-15

    def test_integers_past_the_doubles_give_one_half(self):
        assert closed_form_fidelity(SpinLabel(3), 2**1024) == 0.5

    def test_integral_float_steps_are_accepted(self):
        steps = np.arange(6)
        want = closed_form_fidelity(SpinLabel(4), steps)
        assert np.array_equal(closed_form_fidelity(SpinLabel(4), steps.astype(float)), want)
        assert closed_form_fidelity(SpinLabel(4), 3.0) == want[3]


def _fault_at_jump(monkeypatch, k, fault):
    """Apply ``fault`` to the state the k-th of the 125 jumps of each
    evolve(SpinLabel(10), 2000) lands on, step 16 k."""
    assert quantum_drf._block_length(2000) == 16
    exact_jump = quantum_drf._jump
    calls = []

    def faulty_jump(kernel, windows, populations):
        out = exact_jump(kernel, windows, populations)
        calls.append(None)
        if len(calls) % 125 == k % 125:
            fault(out)
        return out

    monkeypatch.setattr(quantum_drf, "_jump", faulty_jump)


def _move_down(amount):
    """A fault that moves ``amount`` of population from m = +j to m = -j."""
    def fault(out):
        out[-1] -= amount
        out[0] += amount
    return fault


class TestEvolve:
    def test_tracks_closed_form(self):
        fidelity, closed = evolve(SpinLabel(10), 100)
        assert np.max(np.abs(fidelity - closed)) <= 1e-10

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 20, 200])
    def test_returns_two_float_arrays_over_every_step(self, twice_j):
        j = SpinLabel(twice_j)
        returned = evolve(j, 40)
        assert type(returned) is tuple and len(returned) == 2
        fidelity, closed = returned
        for array in returned:
            assert array.dtype == np.float64 and array.shape == (41,)
        assert not np.shares_memory(fidelity, closed)
        assert np.array_equal(closed, closed_form_fidelity(j, np.arange(41)))

    def test_zero_steps(self):
        j = SpinLabel(7)
        fidelity, _ = evolve(j, 0)
        assert len(fidelity) == 1
        assert fidelity[0] == pytest.approx(
            0.5 + 3.5 / 8.0, abs=1e-14  # A = j / (2j + 1) at j = 7/2
        )

    def test_monotone_decay(self):
        fidelity, _ = evolve(SpinLabel(3), 400)
        assert np.all(np.diff(fidelity) <= 1e-15)

    def test_default_length_at_2j_200(self):
        # once failed at step 54127: float trace drift crossed 1e-12
        j = SpinLabel(200)
        fidelity, closed = evolve(j, default_n_max(j))
        assert len(fidelity) == 70009
        assert np.max(np.abs(fidelity - closed)) <= 1e-12
        totals = quantum_drf._map_fidelity(200, default_n_max(j))[3]
        assert np.max(np.abs(totals - 1.0)) <= 1e-14

    def test_fidelity_matches_kraus_observable(self):
        j = SpinLabel(6)
        fidelity, _ = evolve(j, 30)
        state = FrameState.stretched(j)
        for n in range(31):
            assert fidelity[n] == pytest.approx(
                quantum_fidelity(state), abs=1e-15
            )
            state = apply_map(state)

    @pytest.mark.parametrize("k,fault,tolerance", [
        *[(k, lambda out: out.__setitem__(0, -1e-9), "EIGENVALUE_FLOOR")
          for k in (16, 69, 125)],
        *[(k, lambda out: out.__setitem__(0, out[0] + 1e-11), "STRUCTURE_TOL")
          for k in (16, 69, 125)],
        (69, lambda out: out.__setitem__(slice(None), out[::-1]), "MAP_TOL"),
        # F off by 1e-12 (2j/q) = 9.1e-13: within every tolerance but MAP_TOL
        (125, _move_down(1e-12), "MAP_TOL"),
    ])
    def test_failing_step_is_named(self, monkeypatch, k, fault, tolerance):
        # corrupt only the state the k-th jump lands on, step 16 k.  The 126
        # held states are checked 16 at a time: k = 16 opens a group and
        # k = 125 (step 2000) closes the last, partial one.  A reversal at
        # step 2000 stays within MAP_TOL, the state being uniform there
        # to about 1e-15
        _fault_at_jump(monkeypatch, k, fault)
        with pytest.raises(InternalConsistencyError) as excinfo:
            evolve(SpinLabel(10), 2000)
        message = str(excinfo.value)
        assert message.startswith(f"quantum_drf.evolve: 2j=10, step {16 * k}: ")
        assert tolerance in message

    def test_failing_adjoint_row_is_named(self, monkeypatch):
        # a wrong row m^T M^5 breaks the fidelity of steps 5, 21, 37, ...
        exact_rows = quantum_drf._adjoint_rows

        def faulty_rows(m, rates, s):
            rows = exact_rows(m, rates, s)
            rows[5] *= 1.0 + 1e-8
            return rows

        monkeypatch.setattr(quantum_drf, "_adjoint_rows", faulty_rows)
        with pytest.raises(InternalConsistencyError) as excinfo:
            evolve(SpinLabel(10), 2000)
        message = str(excinfo.value)
        assert message.startswith("quantum_drf.evolve: 2j=10, step 5: fidelity ")
        assert "MAP_TOL" in message

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_evolve_and_closed_form_round_the_exact_map(self, twice_j):
        # the integer map is the CG route's map (first steps), and its F_n
        # the exact decay law; evolve and closed_form_fidelity both lie
        # within MAP_TOL of its correctly rounded F_n
        j = SpinLabel(twice_j)
        exact = exact_map_fidelities(twice_j, 200)
        state = [Fraction(0)] * twice_j + [Fraction(1)]
        for n in range(3):
            mean = sum(Fraction(2 * k - twice_j, 2) * p for k, p in enumerate(state))
            assert exact[n] == Fraction(1, 2) + mean / (twice_j + 1)
            state = exact_averaged_step(twice_j, state)
        q2 = (twice_j + 1) ** 2
        amplitude = Fraction(twice_j, 2 * (twice_j + 1))
        assert exact == [Fraction(1, 2) + amplitude * Fraction(q2 - 2, q2) ** n
                         for n in range(201)]
        rounded = np.array([float(f) for f in exact])  # float(Fraction) rounds correctly
        assert np.abs(evolve(j, 200)[0] - rounded).max() <= MAP_TOL
        assert np.abs(closed_form_fidelity(j, np.arange(201)) - rounded).max() <= MAP_TOL

    @pytest.mark.parametrize("move", [-1.2e-12, 1.2e-12])
    def test_rise_or_dip_past_structure_tol_is_named(self, monkeypatch, move):
        # a fault that puts F below 1/2, or makes it rise over the step
        # before, by more than STRUCTURE_TOL is a closed-form error past MAP_TOL
        _fault_at_jump(monkeypatch, 125, _move_down(move))
        with monkeypatch.context() as unchecked:
            unchecked.setattr(quantum_drf, "_check_steps", lambda *args: None)
            fidelity, _ = evolve(SpinLabel(10), 2000)
        if move > 0:
            assert fidelity[2000] < 0.5 - STRUCTURE_TOL
        else:
            assert fidelity[2000] - fidelity[1999] > STRUCTURE_TOL
        with pytest.raises(InternalConsistencyError,
                           match=r"^quantum_drf\.evolve: 2j=10, step 2000: .* MAP_TOL"):
            evolve(SpinLabel(10), 2000)


@functools.lru_cache(maxsize=None)
def _loop_reference(twice_j):
    return flux_loop(twice_j, 1000)


@functools.lru_cache(maxsize=None)
def _exact_averaged_states(twice_j, n_max):
    state = [Fraction(0)] * twice_j + [Fraction(1)]
    states = [state]
    for _ in range(n_max):
        state = exact_averaged_step(twice_j, state)
        states.append(state)
    return np.array([[float(x) for x in row] for row in states])


def _padded_kernel(kernel, s):
    """G from its window storage, in a matrix whose column s - 1 + c stands
    for frame column c; row b's window starts at frame column b - s + 1."""
    dense = np.zeros((len(kernel), len(kernel) + 2 * s - 1))
    for b, row in enumerate(kernel):
        dense[b, b : b + 2 * s] = row
    return dense


class TestBlockedEvolve:
    """``evolve`` takes s map steps per kernel call; every block boundary."""

    @pytest.mark.parametrize("s", [1, 3, 8, 64, None])
    @pytest.mark.parametrize("twice_j", [1, 2, 3, 10, 40, 200])
    def test_fidelity_matches_flux_loop(self, monkeypatch, twice_j, s):
        if s is None:  # the block length evolve picks: 1, 2, 4 and 8 here
            runs = (0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 1000)
        else:
            monkeypatch.setattr(quantum_drf, "_block_length", lambda n_max: s)
            runs = sorted({0, 1, s - 1, s, s + 1, 2 * s + 3, 1000})
        loop = _loop_reference(twice_j)
        for n_max in runs:
            fidelity, _ = evolve(SpinLabel(twice_j), n_max)
            assert len(fidelity) == n_max + 1
            assert np.max(np.abs(fidelity - loop[: n_max + 1])) <= 1e-15

    def test_block_length_grows_with_the_run(self):
        lengths = {n: quantum_drf._block_length(n)
                   for n in (0, 15, 16, 63, 64, 1000, 1024, 16383, 16384, 70008, 10**7)}
        assert lengths == {0: 1, 15: 1, 16: 2, 63: 2, 64: 4, 1000: 8, 1024: 16,
                           16383: 32, 16384: 64, 70008: 64, 10**7: 64}

    @pytest.mark.parametrize("s", [1, 4, 13, 64])
    @pytest.mark.parametrize("twice_j", range(1, 7))
    def test_held_states_match_exact_rationals(self, monkeypatch, twice_j, s):
        monkeypatch.setattr(quantum_drf, "_block_length", lambda n_max: s)
        exact_jump = quantum_drf._jump
        held = []

        def recording_jump(kernel, windows, populations):
            held.append(exact_jump(kernel, windows, populations).copy())
            return populations

        monkeypatch.setattr(quantum_drf, "_jump", recording_jump)
        n_max = 130
        evolve(SpinLabel(twice_j), n_max)
        exact = _exact_averaged_states(twice_j, n_max)
        assert len(held) == n_max // s
        for i, state in enumerate(held, 1):
            assert np.max(np.abs(state - exact[i * s])) <= 1e-15

    @pytest.mark.parametrize("sizes,s", [
        *[(range(1, 61), s) for s in (1, 2, 3, 4, 8, 13, 16, 32, 64)],
        ([1000], 64),
    ])
    def test_kernel_equals_the_full_window_loop(self, sizes, s):
        # entries outside the band a step can reach stay exactly zero, so
        # stepping only the band gives the same bits; the einsum of _jump
        # rounds differently on a transposed view, so the layout is pinned
        for twice_j in sizes:
            rates = transfer_rates(SpinLabel(twice_j))
            kernel = quantum_drf._jump_kernel(rates, s)
            assert kernel.flags.c_contiguous
            assert np.array_equal(kernel, jump_kernel_reference(rates, s))

    @settings(max_examples=40, deadline=None)
    @given(twice_j=st.integers(1, 8), s=st.integers(1, 16))
    def test_kernel_is_the_exact_block_map(self, twice_j, s):
        # M^s - I = -Delta G, so row b of G is minus the running sum of rows
        # 0 ... b of M^s - I; exact rationals from the j (x) 1/2 table
        dim = twice_j + 1
        columns = []
        for c in range(dim):
            column = [Fraction(int(k == c)) for k in range(dim)]
            for _ in range(s):
                column = exact_averaged_step(twice_j, column)
            columns.append(column)
        exact = np.array([[float(-sum(columns[c][k] - (k == c) for k in range(b + 1)))
                           for c in range(dim)] for b in range(twice_j)])
        kernel = quantum_drf._jump_kernel(transfer_rates(SpinLabel(twice_j)), s)
        assert kernel.shape == (twice_j, 2 * s)
        padded = _padded_kernel(kernel, s)
        dense = padded[:, s - 1 : s - 1 + dim]
        assert np.max(np.abs(dense - exact)) <= 2 * s * np.finfo(float).eps
        # window columns that fall outside the frame carry nothing
        assert not padded[:, : s - 1].any() and not padded[:, s - 1 + dim :].any()


class TestTrajectories:
    def test_deterministic_for_fixed_seed(self):
        outcomes1, probs1, state1 = sample_trajectory(SpinLabel(4), 30, seed=99)
        outcomes2, probs2, state2 = sample_trajectory(SpinLabel(4), 30, seed=99)
        assert np.array_equal(outcomes1, outcomes2)
        assert np.array_equal(probs1, probs2)
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

    def test_bad_probability_names_size_and_tolerance(self):
        j = SpinLabel(3)
        kraus = build_kraus(j)
        scaled = quantum_drf.KrausSet({
            key: 1.5 * values for key, values in kraus.bands.items()
        })
        state = FrameState(FrameState.stretched(j).matrix)
        pattern = r"conditional_update: 2j=3: .*outcome \+1 .*STRUCTURE_TOL"
        with pytest.raises(InternalConsistencyError, match=pattern):
            conditional_update(state, scaled, +1)

    def test_outcome_probabilities_sum_to_one(self):
        j = SpinLabel(3)
        kraus = build_kraus(j)
        state = FrameState.stretched(j)
        for _ in range(5):
            p_plus, state_plus = conditional_update(state, kraus, +1)
            p_minus, _ = conditional_update(state, kraus, np.int64(-1))  # an index
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            state = state_plus

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 200])
    def test_record_steps_as_conditional_update_without_a_kraus_set(self, twice_j,
                                                                    monkeypatch):
        # the same bits as conditional_update's diagonal route, with no Kraus set built
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        monkeypatch.setattr(quantum_drf, "build_kraus", None)
        outcomes, probabilities, final = sample_trajectory(j, 50, seed=twice_j)
        state = FrameState.stretched(j)
        for outcome, probability in zip(outcomes, probabilities):
            want, state = conditional_update(state, kraus, outcome)
            assert probability == want
        assert np.array_equal(final.data, state.data)

    def test_record_fields_are_consistent(self):
        outcomes, probabilities, _ = sample_trajectory(SpinLabel(2), 25, seed=5)
        assert outcomes.dtype == int and probabilities.dtype == float
        assert outcomes.shape == probabilities.shape == (25,)
        assert set(np.unique(outcomes)) <= {-1, 1}
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    @pytest.mark.parametrize("twice_j", [1, 2, 4, 13, 40])
    def test_trajectory_ends_at_the_count_fidelity(self, twice_j):
        # the outcome-by-outcome sampler, the independent check of the batch:
        # its final state's fidelity is F_K at its own count K
        j = SpinLabel(twice_j)
        outcomes, _, state = sample_trajectory(j, 20, seed=123)
        count = int(np.sum(outcomes == 1))
        table = conditional_fidelity_table(j, 20)
        assert quantum_fidelity(state) == pytest.approx(table[count], abs=1e-14)

    def test_batch_mean_near_closed_form(self):
        fid, _ = sample_fidelity_batch(SpinLabel(4), 10, 4000, seed=2)
        closed = closed_form_fidelity(SpinLabel(4), 10)
        stderr = fid.std(ddof=1) / np.sqrt(len(fid))
        assert abs(fid.mean() - closed) < 4.0 * stderr

    @pytest.mark.parametrize("twice_j, n, n_samples, seed", [
        (4, 20, 100000, 2024),  # criterion 5's call
        (20, 762, 2000, [7, 20]),  # 2j = 20 at its default n_max, seeded [seed, 2j] as the CLI does
    ])
    def test_counts_follow_the_binomial_law(self, twice_j, n, n_samples, seed):
        # chi-squared goodness of fit of the + counts against Binomial(n, p+),
        # bins pooled from the tails until each expects at least 5; the same
        # counts against p+ + 0.01 must fail, so the test can see a wrong law
        _, counts = sample_fidelity_batch(SpinLabel(twice_j), n, n_samples, seed)
        observed = np.bincount(counts, minlength=n + 1)

        def p_value(p):
            expected = n_samples * binom.pmf(np.arange(n + 1), n, p)
            obs_bins, exp_bins, o, e = [], [], 0, 0.0
            for ob, ex in zip(observed, expected):
                o, e = o + ob, e + ex
                if e >= 5.0:
                    obs_bins.append(o)
                    exp_bins.append(e)
                    o, e = 0, 0.0
            obs_bins[-1] += o  # the right tail joins the last full bin
            exp_bins[-1] += e
            return chisquare(obs_bins, exp_bins).pvalue

        p_plus = multipole_spectrum(SpinLabel(twice_j)).p_plus
        assert p_value(p_plus) > 1e-3
        assert p_value(p_plus + 0.01) < 1e-9

    @pytest.mark.parametrize("twice_j, n, n_samples, seed", [
        *(pinned["case"] for pinned in PINNED_STREAMS.values()),
        *((tj, default_n_max(SpinLabel(tj)), 2000, [5, tj]) for tj in (200, 1000)),
    ])
    def test_counts_invert_the_exact_cdf(self, twice_j, n, n_samples, seed):
        # each count is the least K with binom.cdf(K) > u for the sample's
        # uniform u, the seed's stream drawn once per sample; only a uniform
        # within 1e-12 of a CDF value may land on the other side of it; each
        # fidelity is F_K at the sample's count
        fid, counts = sample_fidelity_batch(SpinLabel(twice_j), n, n_samples, seed)
        assert np.array_equal(fid, conditional_fidelity_table(SpinLabel(twice_j), n)[counts])
        uniforms = np.random.default_rng(seed).random(n_samples)
        cdf = binom.cdf(np.arange(n + 1), n, multipole_spectrum(SpinLabel(twice_j)).p_plus)
        exact = np.searchsorted(cdf, uniforms, side="right")
        near = np.abs(cdf[np.minimum(exact, n)] - uniforms) < 1e-12
        near |= np.abs(cdf[np.maximum(exact - 1, 0)] - uniforms) < 1e-12
        assert np.array_equal(counts[~near], exact[~near])
        assert np.all(np.abs(counts[near] - exact[near]) <= 1)
        assert near.sum() < 3


def exact_count_fidelity(twice_j, n, count):
    """F_K = 1/2 + (j/q) mu+^K mu-^(n-K) in exact rationals."""
    q = twice_j + 1
    mu_plus = 1 - Fraction(2, q * (twice_j + 2))
    mu_minus = 1 - Fraction(2, q * twice_j)
    return Fraction(1, 2) + Fraction(twice_j, 2 * q) * mu_plus**count * mu_minus**(n - count)


class TestRecordStatistics:
    @pytest.mark.parametrize("twice_j", range(1, 7))
    def test_every_ordering_gives_the_count_formula(self, twice_j):
        # every outcome string of length <= 8 through the exact per-outcome map:
        # each outcome has probability p+ or p- whatever came before, and the
        # conditional fidelity depends on the count of +1 outcomes only
        q = twice_j + 1
        p_plus = Fraction(twice_j + 2, 2 * q)
        m_values = [Fraction(2 * k - twice_j, 2) for k in range(q)]
        start = [Fraction(0)] * q
        start[-1] = Fraction(1)
        frontier = [(start, 0)]
        for n in range(9):
            table = conditional_fidelity_table(SpinLabel(twice_j), n)
            for pops, count in frontier:
                fidelity = Fraction(1, 2) + sum(p * m for p, m in zip(pops, m_values)) / q
                exact = exact_count_fidelity(twice_j, n, count)
                assert fidelity == exact
                assert abs(table[count] - exact) <= 2.2e-16
            if n == 8:
                break
            grown = []
            for pops, count in frontier:
                for plus, prob in ((True, p_plus), (False, 1 - p_plus)):
                    unnorm = exact_outcome_step(twice_j, pops, plus)
                    assert sum(unnorm) == prob
                    grown.append(([p / prob for p in unnorm], count + plus))
            frontier = grown

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_half_spin_minus_factor_is_exactly_zero_or_one(self, n):
        # at 2j = 1, 1 + x-_1 = 0: (1 + x-_1)^(n - K) is 0 for K < n and
        # 0^0 = 1 at K = n, so F_n carries the +1 factor alone
        spectrum = multipole_spectrum(SpinLabel(1))
        assert 1.0 + spectrum.minus[1] == 0.0
        table = conditional_fidelity_table(SpinLabel(1), n)
        plus_only = 0.5 + spectrum.amplitude * np.exp(n * np.log1p(spectrum.plus[1]))
        assert table[n] == plus_only
        assert np.all(table[:n] == 0.5)
        assert abs(table[n] - exact_count_fidelity(1, n, n)) <= 2.2e-16


class TestPinnedStream:
    """sample_fidelity_batch's seeded stream: the same counts on every machine."""

    @pytest.mark.parametrize("twice_j, n_max, n_samples, seed, digest", [
        (*pinned["case"], pinned["sha256"]) for pinned in PINNED_STREAMS.values()])
    def test_counts_match_the_pinned_stream(self, twice_j, n_max, n_samples, seed, digest):
        # sha256 of the little-endian int64 plus_counts, pinned in
        # tests/golden/manifest.json
        assert regenerate.plus_counts_digest(twice_j, n_max, n_samples, seed) == digest


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
                mapped = apply_map(mapped)
            assert np.max(np.abs(averaged - mapped.populations)) < 1e-12

    @pytest.mark.parametrize("twice_j", range(1, 7))
    def test_exhaustive_records_give_the_spread_closed_form(self, twice_j):
        # sum_r P(r) (F_r - 1/2)^2 = A^2 (p+ mu+^2 + p- mu-^2)^n, mu = 1 + x_1
        # of each outcome: the spread across records that the walk misses
        j = SpinLabel(twice_j)
        kraus = build_kraus(j)
        spectrum = multipole_spectrum(j)
        p_plus = spectrum.p_plus
        mu_plus, mu_minus = 1.0 + spectrum.plus[1], 1.0 + spectrum.minus[1]
        for n in range(1, 7):
            spread = 0.0
            for outcomes in itertools.product(OUTCOMES, repeat=n):
                state = FrameState.stretched(j)
                weight = 1.0
                for c in outcomes:
                    prob, state = conditional_update(state, kraus, c)
                    weight *= prob
                spread += weight * (quantum_fidelity(state) - 0.5) ** 2
            want = spectrum.amplitude ** 2 * (p_plus * mu_plus ** 2
                                              + (1.0 - p_plus) * mu_minus ** 2) ** n
            assert abs(spread - want) <= 1e-12, f"n={n}: {abs(spread - want):.3e}"
