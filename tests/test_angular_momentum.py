"""Coupling primitives against the dense J^2 eigendecomposition oracle."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from drfsim import (
    DomainError,
    SpinLabel,
    cg_coefficient,
    coherent_columns,
    coherent_populations,
    projector_element,
)

from drfsim.angular_momentum import _log_binomials
from drfsim.tolerances import STRUCTURE_TOL

from brute_force import coherent_columns_reference, coupled_projectors, sector_cg

def twice_m_values(twice_j):
    """Every 2m of a frame, ascending from -2j to +2j."""
    return np.arange(-twice_j, twice_j + 1, 2)


def assemble_projector(twice_j, c):
    """Full (2(2j+1))^2 projector from projector_element, qubit index fastest."""
    j = SpinLabel(twice_j)
    dim = 2 * j.dim
    full = np.zeros((dim, dim))
    tm = twice_m_values(twice_j)
    for r, m_row in enumerate(tm):
        for col, m_col in enumerate(tm):
            for a in (0, 1):
                for b in (0, 1):
                    full[2 * r + a, 2 * col + b] = projector_element(j, c, a, b, m_row, m_col)
    return full


class TestSpinLabel:
    def test_holds_twice_j_and_dimension_only(self):
        # an accepted input: every function reads it as its int 2j
        j = SpinLabel(3)
        assert (j.twice_j, j.dim) == (3, 4)
        assert [name for name in dir(j) if not name.startswith("_")] == ["dim", "twice_j"]
        assert cg_coefficient(j, 1, 0, +1) == cg_coefficient(3, 1, 0, +1)


class TestCGCoefficient:
    def test_stretched_state_is_exactly_one(self):
        coeff = cg_coefficient(SpinLabel(1), 1, 0, +1)
        assert coeff.sign == 1
        assert coeff.square == Fraction(1)
        assert coeff.value == 1.0

    def test_half_spin_value(self):
        # frozen from the 4-dim J^2 diagonalisation oracle
        coeff = cg_coefficient(SpinLabel(1), -1, 0, +1)
        assert coeff.value == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert coeff.square == Fraction(1, 2)

    def test_spin_one_value(self):
        # frozen from the 6-dim J^2 diagonalisation oracle
        coeff = cg_coefficient(SpinLabel(2), 0, 0, +1)
        assert coeff.value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert coeff.square == Fraction(2, 3)

    def test_minus_branch_sign(self):
        coeff = cg_coefficient(SpinLabel(2), 0, 0, -1)
        assert coeff.value == pytest.approx(-math.sqrt(1.0 / 3.0), abs=1e-15)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 5, 8])
    def test_matches_sector_diagonalisation(self, twice_j):
        j = SpinLabel(twice_j)
        for twice_m in twice_m_values(twice_j):
            for a in (0, 1):
                for c in (+1, -1):
                    got = cg_coefficient(j, int(twice_m), a, c).value
                    want = sector_cg(twice_j, int(twice_m), s_up=a == 0, plus=c == +1)
                    assert got == pytest.approx(want, abs=1e-12), f"2m={twice_m}, a={a}, c={c}"

    def test_numpy_integers_accepted(self):
        # as 2m, as the qubit indices a and b, and as the outcome c
        j = SpinLabel(3)
        for twice_m in twice_m_values(3):
            assert cg_coefficient(j, twice_m, np.int8(0), np.int64(-1)) == \
                cg_coefficient(j, int(twice_m), 0, -1)
        assert projector_element(j, np.int32(1), 0, 0, np.int32(1), np.int64(1)) == \
            projector_element(j, 1, 0, 0, 1, 1)
        assert projector_element(j, 1, np.int64(0), np.int8(1), 1, 3) == \
            projector_element(j, 1, 0, 1, 1, 3) != 0.0

    def test_squares_sum_to_one_within_branches(self):
        # For fixed (m, s) the two branch squares sum to 1 exactly.
        j = SpinLabel(7)
        for twice_m in twice_m_values(7):
            for a in (0, 1):
                total = (
                    cg_coefficient(j, int(twice_m), a, +1).square
                    + cg_coefficient(j, int(twice_m), a, -1).square
                )
                assert total == Fraction(1)


class TestProjectorElement:
    def test_diagonal_value_at_top(self):
        # j=1, m=1: <0|Pi_+|0> = (j+m+1)/(2j+1) = 1, from the 6-dim oracle
        val = projector_element(SpinLabel(2), +1, 0, 0, 2, 2)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_selection_rule_zero(self):
        for twice_j in (1, 2, 5):
            j = SpinLabel(twice_j)
            m = -twice_j
            assert projector_element(j, +1, 0, 1, m, m) == 0.0

    def test_lower_branch_vanishes_at_stretched_edge(self):
        # <up|Pi_-|up> at m = j is (j-m)/(2j+1) = 0, forced by Pi_+ + Pi_- = I
        assert projector_element(SpinLabel(1), -1, 0, 0, 1, 1) == 0.0

    @pytest.mark.parametrize("twice_j", range(1, 21))
    def test_completeness_exhaustive(self, twice_j):
        j = SpinLabel(twice_j)
        tm = twice_m_values(twice_j)
        for m_row in tm:
            for m_col in tm:
                for a in (0, 1):
                    for b in (0, 1):
                        total = sum(
                            projector_element(j, c, a, b, int(m_row), int(m_col))
                            for c in (+1, -1)
                        )
                        expected = 1.0 if (a == b and m_row == m_col) else 0.0
                        assert total == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 8])
    def test_assembled_projectors(self, twice_j):
        pi_plus = assemble_projector(twice_j, +1)
        pi_minus = assemble_projector(twice_j, -1)
        for pi in (pi_plus, pi_minus):
            assert np.max(np.abs(pi @ pi - pi)) < 1e-12
            assert np.max(np.abs(pi - pi.T)) < 1e-12
        assert np.trace(pi_plus) == pytest.approx(twice_j + 2, abs=1e-12)
        assert np.trace(pi_minus) == pytest.approx(twice_j, abs=1e-12)
        oracle_plus, oracle_minus = coupled_projectors(twice_j)
        assert np.max(np.abs(pi_plus - oracle_plus)) < 1e-12
        assert np.max(np.abs(pi_minus - oracle_minus)) < 1e-12


@pytest.mark.parametrize("bad", [0.0, 2, True, "1", None])
def test_outcome_and_qubit_index_are_checked(bad):
    # none of these is read as a label, and each is checked before the
    # selection rule's 0
    with pytest.raises(DomainError, match=r"^c must be one of \(1, -1\)"):
        cg_coefficient(SpinLabel(1), 1, 0, bad)
    with pytest.raises(DomainError, match=r"^c must be one of \(1, -1\)"):
        projector_element(SpinLabel(3), bad, 0, 1, 1, 1)
    with pytest.raises(DomainError, match=r"^a must be one of \(0, 1\)"):
        cg_coefficient(SpinLabel(3), 1, bad, +1)
    with pytest.raises(DomainError, match=r"^a must be one of \(0, 1\)"):
        projector_element(SpinLabel(3), +1, bad, 1, 1, 1)


class TestCoherentPopulations:
    @pytest.mark.parametrize("twice_j", [1, 2, 6, 2000])
    def test_poles_are_exactly_one_hot_without_warnings(self, twice_j):
        # m = +j at theta = 0 and m = -j at theta = pi; no 0 log 0 is formed
        j = SpinLabel(twice_j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aligned = coherent_populations(j, 0.0)
            antialigned = coherent_populations(j, math.pi)
        assert aligned[-1] == 1.0 and not np.any(aligned[:-1])
        assert antialigned[0] == 1.0 and not np.any(antialigned[1:])

    @pytest.mark.parametrize("twice_j", [1, 6, 2000])
    def test_columns_equal_single_angles(self, twice_j):
        # the grid form is the single-angle form, bit for bit, poles included
        j = SpinLabel(twice_j)
        thetas = np.arccos(np.linspace(1.0, -1.0, 41))
        columns = coherent_columns(j, thetas)
        assert columns.shape == (j.dim, len(thetas))
        for i, theta in enumerate(thetas):
            assert np.array_equal(columns[:, i], coherent_populations(j, theta))

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 160])
    @pytest.mark.parametrize("angles", ["grid", "unsorted", "repeated", "interior poles"])
    def test_bit_identical_to_whole_array_reference(self, twice_j, angles):
        # built in place with placeholder poles, every entry is the same IEEE
        # result as the whole-array expression
        rng = np.random.default_rng(twice_j)
        thetas = {
            "grid": np.arccos(np.linspace(1.0, -1.0, 8 * (twice_j + 1))),
            "unsorted": rng.uniform(0.0, math.pi, 37),
            "repeated": np.repeat(rng.uniform(0.0, math.pi, 5), 4),
            "interior poles": np.array([0.4, 0.0, 1.3, math.pi, 2.9, 0.0, math.pi, 1e-9]),
        }[angles]
        assert np.array_equal(coherent_columns(SpinLabel(twice_j), thetas),
                              coherent_columns_reference(twice_j, thetas))

    @pytest.mark.parametrize("twice_j, n_angles", [
        (2000, 1),      # one block holds every row
        (1000, 8),      # one block, 4096 rows allowed
        (63, 1024),     # blocks of 32 rows, two full ones
        (64, 1024),     # blocks of 32 rows, the last holds one row
        (3, 1 << 15),   # blocks of exactly one row
        (3, 40000),     # more angles than 2^15, still one row per block
        (2, 0),         # no angles: an empty (2j + 1, 0) array
    ])
    def test_bit_identical_across_row_blocks(self, twice_j, n_angles):
        # the (2j - k) log(1 - c^2) term is added a block of rows at a time;
        # every block edge gives the whole-array expression's bits
        thetas = (np.array([1.0]) if n_angles == 1
                  else np.arccos(np.linspace(1.0, -1.0, n_angles)))
        columns = coherent_columns(SpinLabel(twice_j), thetas)
        assert columns.shape == (twice_j + 1, n_angles)
        assert np.array_equal(columns, coherent_columns_reference(twice_j, thetas))

    def test_equator_half_spin(self):
        # explicit 2x2 rotation of the up state
        p = coherent_populations(SpinLabel(1), math.pi / 2.0)
        assert p == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_large_spin_no_overflow(self):
        p = coherent_populations(SpinLabel(200), 1.0)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("twice_j", [1, 7, 80, 1000, 2000])
    def test_matches_scipy_binomial_pmf(self, twice_j):
        # log-space pmf from exact integer binomials against scipy's binomial;
        # nodes uniform in cos(theta) with both poles, as build_grid places them
        j = SpinLabel(twice_j)
        for theta in np.arccos(np.linspace(1.0, -1.0, 201)):
            p = coherent_populations(j, theta)
            expected = binom.pmf(np.arange(j.dim), twice_j, (1.0 + math.cos(theta)) / 2.0)
            assert np.max(np.abs(p - expected)) <= 2e-14
            assert abs(p.sum() - 1.0) <= STRUCTURE_TOL

    def test_log_binomials_are_the_logs_of_the_exact_binomials(self):
        # the table built by C(n, k + 1) = C(n, k) (n - k) // (k + 1) and
        # mirrored, bit for bit against math.comb at every k
        for n in [*range(1, 41), 999, 1000]:
            want = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
            assert np.array_equal(_log_binomials(n), want), n

    def test_log_binomials_are_quick_far_past_the_working_range(self):
        # about 0.05 s at 2j = 16 000; one math.comb per entry took a minute
        tic = time.perf_counter()
        logs = _log_binomials(16_000)
        assert time.perf_counter() - tic < 10.0
        assert logs[0] == logs[-1] == 0.0 and logs[8_000] == logs.max()

    @settings(max_examples=60, deadline=None)
    @given(
        twice_j=st.integers(min_value=1, max_value=40),
        theta=st.floats(min_value=0.0, max_value=math.pi,
                        allow_nan=False, allow_infinity=False),
    )
    def test_normalisation_and_mirror_symmetry(self, twice_j, theta):
        j = SpinLabel(twice_j)
        p = coherent_populations(j, theta)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        mirrored = coherent_populations(j, math.pi - theta)
        assert np.max(np.abs(p - mirrored[::-1])) < 1e-12
