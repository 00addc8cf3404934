"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
from scipy.stats import binom

import acceptance_report

from drfsim import (
    FrameState,
    SpinLabel,
    apply_map,
    build_kraus,
    classical_fidelity,
    closed_form_fidelity,
    conditional_update,
    convexity_test,
    evolve,
    fitted_step,
    initial_spectrum,
    sample_fidelity_batch,
    walk_evolve,
    angular_variance,
)
from drfsim.cli import half_life
from drfsim.quantum_drf import conditional_fidelity_table
from drfsim.selftest import run_selftest


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        acceptance_report.record(label, False)
        raise
    print(f"[PASS] {label}")
    acceptance_report.record(label, True)


DECAY_SET = (1, 2, 3, 10, 20, 50)


def test_criterion_1_exact_decay_law():
    with criterion("1. iterated map matches the closed-form decay to 1e-10 "
                   "(2j in {1,2,3,10,20,50}, n <= 1000)"):
        for twice_j in DECAY_SET:
            series = evolve(SpinLabel(twice_j), 1000)
            assert series.max_abs_diff <= 1e-10, (
                f"2j={twice_j}: {series.max_abs_diff:.3e}"
            )


def test_criterion_2_classical_quantum_fit():
    with criterion("2. fitted-step Legendre pipeline equals the quantum "
                   "fidelity to 1e-10 (same set)"):
        for twice_j in DECAY_SET:
            j = SpinLabel(twice_j)
            spec0 = initial_spectrum(j)
            alpha = fitted_step(j)
            steps = np.arange(1001)
            f_c = np.array([
                classical_fidelity(walk_evolve(spec0, alpha, int(n)))
                for n in steps
            ])
            f_q = closed_form_fidelity(j, steps)
            worst = np.max(np.abs(f_c - f_q))
            assert worst <= 1e-10, f"2j={twice_j}: {worst:.3e}"


def test_criterion_3_initial_coefficients():
    with criterion("3. quadrature c_0 = 1 and c_1 = 6j/(2j+1) to 1e-10 "
                   "for 2j <= 100"):
        for twice_j in range(1, 101):
            spec = initial_spectrum(SpinLabel(twice_j))
            assert abs(spec.coeffs[0] - 1.0) <= 1e-10
            expected = 3.0 * twice_j / (twice_j + 1.0)
            assert abs(spec.coeffs[1] - expected) <= 1e-10, f"2j={twice_j}"


def test_criterion_4_ring_average_eigenvalues(ring_law_error):
    with criterion("4. ring average of P_l(cos theta) matches "
                   "P_l(cos alpha) P_l(cos theta) to 1e-7 (l <= 8)"):
        for alpha in (0.1, 0.5, 1.0):
            for ell in range(1, 9):
                worst = ring_law_error(32768, alpha, ell)
                assert worst <= 1e-7, f"l={ell}, alpha={alpha}: {worst:.3e}"


def test_criterion_5_record_averaging():
    with criterion("5. record average reproduces the map (exhaustive, 1e-12) "
                   "and Monte Carlo lands within 3 standard errors"):
        for twice_j in range(1, 7):
            j = SpinLabel(twice_j)
            kraus = build_kraus(j)
            for n in range(1, 7):
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
                worst = np.max(np.abs(averaged - mapped.populations))
                assert worst <= 1e-12, f"2j={twice_j}, n={n}: {worst:.3e}"

        fidelities, _ = sample_fidelity_batch(SpinLabel(4), 20, 100000, seed=2024)
        mean = fidelities.mean()
        stderr = fidelities.std(ddof=1) / math.sqrt(len(fidelities))
        target = closed_form_fidelity(SpinLabel(4), 20)
        assert abs(mean - target) <= 3.0 * stderr, (
            f"MC mean {mean:.6f} vs {target:.6f} ({abs(mean - target) / stderr:.2f} se)"
        )


def test_record_count_distribution_reproduces_the_decay():
    # Beside criterion 5: the count K of +1 outcomes is Binomial(n, p+), and
    # averaging F_K over it gives the closed form exactly, because
    # p+ mu+ + p- mu- = 1 - 2/q^2.
    for twice_j in (1, 4, 13, 40):
        p_plus = (twice_j + 2) / (2.0 * (twice_j + 1))
        for n in (1, 20, 500):
            weights = binom.pmf(np.arange(n + 1), n, p_plus)
            average = float(weights @ conditional_fidelity_table(SpinLabel(twice_j), n))
            target = closed_form_fidelity(SpinLabel(twice_j), n)
            assert abs(average - target) <= 1e-14, f"2j={twice_j}, n={n}"


def test_criterion_6_quadratic_longevity():
    with criterion("6. half-life ratios under j-doubling lie in [3.8, 4.2] "
                   "for j in {10..80}"):
        # spins j = 10, 20, 40, 80 (twice_j = 20..160); each doubling of the
        # spin should roughly quadruple the half-life
        spins = [20, 40, 80, 160]
        lives = {tj: half_life(SpinLabel(tj)) for tj in spins}
        for small, large in zip(spins, spins[1:]):
            ratio = lives[large] / lives[small]
            assert 3.8 <= ratio <= 4.2, f"{small}->{large}: ratio {ratio:.4f}"


def test_criterion_7_non_convexity():
    with criterion("7. fit residual <= 1e-10 at n = 0; > 1e-6 and stable "
                   "under grid doubling at n = 1 (2j in {2,4,8})"):
        for twice_j in (2, 4, 8):
            j = SpinLabel(twice_j)
            nodes = 8 * (twice_j + 1)
            pristine = convexity_test(j, 0, nodes)
            assert pristine.residual <= 1e-10, f"2j={twice_j}, n=0"
            evolved = convexity_test(j, 1, nodes)
            doubled = convexity_test(j, 1, 2 * nodes)
            assert evolved.residual > 1e-6, f"2j={twice_j}: {evolved.residual:.3e}"
            change = abs(doubled.residual - evolved.residual)
            assert change < 0.1 * evolved.residual, (
                f"2j={twice_j}: residual moved {change:.3e} "
                f"on {evolved.residual:.3e}"
            )


def test_criterion_8_structural_selftest(capsys):
    with criterion("8. structural invariant suites all pass under --selftest"):
        passed, failed = run_selftest()
        assert failed == 0, f"{failed} selftest checks failed"
        assert passed > 0


def test_criterion_9_gaussian_approximation():
    with criterion("9. angular variance within 5% of 1/(2j) for 2j >= 40; "
                   "profile gap below 0.02 at 2j = 200"):
        for twice_j in (40, 60, 100, 200):
            ratio = angular_variance(SpinLabel(twice_j)) * twice_j
            assert abs(ratio - 1.0) < 0.05, f"2j={twice_j}: ratio {ratio:.4f}"
        twice_j = 200
        j = twice_j / 2.0
        theta = np.linspace(0.0, j ** (-0.25), 4001)
        gap = np.max(np.abs(
            np.cos(theta / 2.0) ** (4 * twice_j) - np.exp(-j * theta**2)
        ))
        assert gap < 0.02, f"profile gap {gap:.4f}"
