"""Legendre pipeline against quadrature and grid ring-average oracles."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legval
from scipy.special import eval_legendre, polygamma

from drfsim import (
    AccuracyError,
    DomainError,
    InternalConsistencyError,
    LegendreSpectrum,
    SpinLabel,
    WalkParameters,
    angular_variance,
    classical_fidelity,
    classical_fidelity_series,
    closed_form_fidelity,
    fitted_step,
    initial_spectrum,
    ring_average,
    walk_evolve,
)
from drfsim import classical_walk
from drfsim.tolerances import STRUCTURE_TOL

from brute_force import full_ring_average, legendre_coefficients_by_quadrature


def fidelity_by_quadrature(spec):
    """Independent route: integrate p(theta) cos^2(theta/2) over the sphere."""
    x, w = leggauss(spec.l_max + 8)
    p = legval(x, spec.coeffs)
    return float(0.5 * np.sum(w * p * (1.0 + x) / 2.0))


class TestInitialSpectrum:
    def test_c0_is_exactly_one(self):
        spec = initial_spectrum(SpinLabel(5))
        assert spec.coeffs[0] == 1.0

    def test_c1_spin_one(self):
        spec = initial_spectrum(SpinLabel(2))
        assert spec.coeffs[1] == pytest.approx(2.0, abs=1e-10)

    def test_c1_spin_half(self):
        spec = initial_spectrum(SpinLabel(1))
        assert spec.coeffs[1] == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 16, 40])
    def test_c1_closed_form(self, twice_j):
        spec = initial_spectrum(SpinLabel(twice_j))
        assert spec.coeffs[1] == pytest.approx(
            3.0 * twice_j / (twice_j + 1.0), abs=1e-10
        )

    def test_reconstruction_matches_profile(self):
        twice_j = 12
        spec = initial_spectrum(SpinLabel(twice_j))
        theta = np.linspace(0.0, math.pi, 500)
        exact = (2.0 * twice_j + 1.0) * np.cos(theta / 2.0) ** (4 * twice_j)
        assert np.max(np.abs(spec.reconstruct(theta) - exact)) < 1e-9

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18,
        reason="the quadrature oracle needs extended-precision long double",
    )
    def test_product_matches_quadrature(self):
        # the oracle runs past l = 4j, where the exact series has no terms,
        # so its vanishing there is checked too
        for twice_j in range(1, 101):
            spec = initial_spectrum(SpinLabel(twice_j))
            oracle = legendre_coefficients_by_quadrature(
                twice_j, max(2 * twice_j + 16, 64))
            padded = np.zeros_like(oracle)
            padded[: spec.l_max + 1] = spec.coeffs
            worst = np.max(np.abs(padded - oracle))
            assert worst <= 1e-12, f"2j={twice_j}: {worst:.3e}"

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 100])
    def test_coefficients_vanish_beyond_4j(self, twice_j):
        # the series holds c_0 ... c_4j and nothing after; the quadrature
        # test above checks that the oracle's c_l vanish beyond l = 4j
        spec = initial_spectrum(SpinLabel(twice_j))
        assert spec.l_max == 2 * twice_j
        assert spec.coeffs[-1] > 0.0

    def test_l_max_is_read_only(self):
        spec = initial_spectrum(SpinLabel(3))
        assert spec.l_max == 6
        with pytest.raises(AttributeError):
            spec.l_max = 8


class TestWalkEvolve:
    def test_zero_angle_is_identity(self):
        spec = initial_spectrum(SpinLabel(4))
        walked = walk_evolve(spec, WalkParameters(0.0, 17))
        assert np.array_equal(walked.coeffs, spec.coeffs)

    def test_normalisation_preserved(self):
        spec = initial_spectrum(SpinLabel(4))
        walked = walk_evolve(spec, WalkParameters(0.7, 300))
        assert walked.coeffs[0] == 1.0

    def test_c1_decays_as_cosine_power(self):
        spec = initial_spectrum(SpinLabel(6))
        alpha, n = 0.3, 25
        walked = walk_evolve(spec, WalkParameters(alpha, n))
        assert walked.coeffs[1] == pytest.approx(
            spec.coeffs[1] * math.cos(alpha) ** n, rel=1e-13
        )

    def test_spectral_decay(self):
        spec = initial_spectrum(SpinLabel(8))
        for alpha in (0.1, 0.5, 1.0, 2.5):
            walked = walk_evolve(spec, WalkParameters(alpha, 3))
            assert np.all(np.abs(walked.coeffs[1:]) <= np.abs(spec.coeffs[1:]) + 1e-15)

    @pytest.mark.parametrize("twice_j", [1, 20, 1000])
    def test_gains_equal_scipy_legendre_at_fitted_step(self, twice_j):
        # one kick scales c_l by P_l(cos alpha), bit for bit as scipy evaluates it
        spec = initial_spectrum(SpinLabel(twice_j))
        alpha = fitted_step(SpinLabel(twice_j))
        walked = walk_evolve(spec, WalkParameters(alpha, 1))
        gains = eval_legendre(np.arange(spec.l_max + 1), math.cos(alpha))
        assert np.array_equal(walked.coeffs[1:], spec.coeffs[1:] * gains[1:])

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=math.pi),
           twice_j=st.integers(min_value=1, max_value=300))
    def test_gains_match_scipy_legendre(self, alpha, twice_j):
        spec = LegendreSpectrum(np.ones(4 * twice_j + 1))
        walked = walk_evolve(spec, WalkParameters(alpha, 1))
        gains = eval_legendre(np.arange(spec.l_max + 1), math.cos(alpha))
        assert np.max(np.abs(walked.coeffs[1:] - gains[1:])) <= STRUCTURE_TOL


class TestClassicalFidelity:
    def test_uniform_distribution_is_coin_toss(self):
        coeffs = np.zeros(65)
        coeffs[0] = 1.0
        assert classical_fidelity(LegendreSpectrum(coeffs)) == 0.5

    def test_point_distribution_is_ideal(self):
        # truncated expansion of a delta at theta = 0: c_l = 2l + 1
        l_max = 32
        coeffs = 2.0 * np.arange(l_max + 1) + 1.0
        assert classical_fidelity(LegendreSpectrum(coeffs)) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("twice_j", [1, 3, 10, 24])
    def test_initial_fidelity_matches_quantum_start(self, twice_j):
        spec = initial_spectrum(SpinLabel(twice_j))
        expected = 0.5 + (twice_j / 2.0) / (twice_j + 1.0)
        assert classical_fidelity(spec) == pytest.approx(expected, abs=1e-10)
        assert classical_fidelity(spec) == pytest.approx(
            closed_form_fidelity(SpinLabel(twice_j), 0), abs=1e-10
        )

    @pytest.mark.parametrize("alpha,n", [(0.0, 0), (0.4, 7), (1.2, 40)])
    def test_coefficient_route_equals_quadrature_route(self, alpha, n):
        spec = walk_evolve(initial_spectrum(SpinLabel(9)), WalkParameters(alpha, n))
        assert classical_fidelity(spec) == pytest.approx(
            fidelity_by_quadrature(spec), abs=1e-10
        )


class TestFittedStep:
    def test_half_spin_is_sixty_degrees(self):
        assert fitted_step(SpinLabel(1)) == pytest.approx(math.pi / 3.0, abs=1e-14)

    def test_spin_ten(self):
        assert fitted_step(SpinLabel(20)) == pytest.approx(
            math.acos(1.0 - 2.0 / 441.0), abs=1e-15
        )

    @pytest.mark.parametrize("twice_j", [100, 150, 200])
    def test_large_spin_scales_as_inverse_j(self, twice_j):
        alpha = fitted_step(SpinLabel(twice_j))
        assert alpha * (twice_j + 1.0) / 2.0 == pytest.approx(1.0, rel=1e-2)


class TestRingAverage:
    def test_uniform_distribution_is_invariant(self):
        thetas = np.linspace(0.0, math.pi, 4096)
        out = ring_average(thetas, np.ones_like(thetas), 0.8)
        assert np.max(np.abs(out - 1.0)) < 1e-14

    def test_first_legendre_mode_scales_by_cosine(self):
        thetas = np.linspace(0.0, math.pi, 16384)
        alpha = 0.6
        values = np.cos(thetas)
        out = ring_average(thetas, values, alpha)
        assert np.max(np.abs(out - math.cos(alpha) * values)) < 1e-8

    @pytest.mark.parametrize("ell", [2, 5, 8])
    def test_eigenoperator_property(self, ell):
        thetas = np.linspace(0.0, math.pi, 32768)
        alpha = 0.5
        values = eval_legendre(ell, np.cos(thetas))
        out = ring_average(thetas, values, alpha)
        want = eval_legendre(ell, math.cos(alpha)) * values
        assert np.max(np.abs(out - want)) < 1e-7

    def test_point_mass_spreads_to_ring(self):
        n = 8192
        thetas = np.linspace(0.0, math.pi, n)
        alpha = 0.9
        spike = np.zeros(n)
        spike[0] = 1.0
        out = ring_average(thetas, spike, alpha)
        peak = thetas[np.argmax(out)]
        assert abs(peak - alpha) < 5.0 * (math.pi / n)
        # all mass sits within a narrow band around the ring
        band = np.abs(thetas - alpha) < 0.02
        assert out[~band].max() <= 1e-12

    @pytest.mark.parametrize("n_psi", [1, 2, 7, 64, 65])
    def test_half_ring_equals_full_ring(self, n_psi):
        # the ring integrand depends on psi only via cos(psi); the full
        # n_psi-node trapezoid average is the reference
        thetas = np.linspace(0.0, math.pi, 2048)
        values = np.exp(np.cos(thetas)) * (1.0 + np.sin(3.0 * thetas))
        alpha = 0.7
        psi = np.arange(n_psi) * (2.0 * math.pi / n_psi)
        cos_ring = np.clip(
            np.cos(thetas)[:, None] * math.cos(alpha)
            + np.sin(thetas)[:, None] * math.sin(alpha) * np.cos(psi)[None, :],
            -1.0, 1.0,
        )
        full = np.interp(np.arccos(cos_ring), thetas, values).mean(axis=1)
        out = ring_average(thetas, values, alpha, n_psi=n_psi)
        assert np.max(np.abs(out - full)) <= 1e-14

    @pytest.mark.parametrize("ell", [1, 4, 8])
    def test_matches_full_ring_interp_reference(self, ell):
        thetas = np.linspace(0.0, math.pi, 32768)
        values = eval_legendre(ell, np.cos(thetas))
        out = ring_average(thetas, values, 0.5)
        assert np.max(np.abs(out - full_ring_average(thetas, values, 0.5))) <= 1e-14

    @pytest.mark.parametrize("n_grid,alpha", [
        (2048, 3.0), (2049, 3.0), (32768, 3.0),
        # theta = pi/2 is node 1024, so its ring reaches theta' = pi and u = N - 1
        (2049, math.pi / 2.0),
    ])
    def test_point_mass_at_last_node(self, n_grid, alpha):
        thetas = np.linspace(0.0, math.pi, n_grid)
        spike = np.zeros(n_grid)
        spike[-1] = 1.0
        out = ring_average(thetas, spike, alpha)
        assert out.max() > 0.0
        assert np.max(np.abs(out - full_ring_average(thetas, spike, alpha))) <= 1e-14

    def test_smooth_profile_matches_full_ring_reference(self):
        # near theta = 0 every ring point sits near theta' = alpha, so a
        # ring's terms are alike; a BLAS dot product summed them 13 ulp off
        thetas = np.linspace(0.0, math.pi, 2049)
        values = np.exp(np.cos(thetas)) * (1.0 + np.sin(3.0 * thetas))
        out = ring_average(thetas, values, 0.5, n_psi=1023)
        want = full_ring_average(thetas, values, 0.5, n_psi=1023)
        assert np.max(np.abs(out - want)) <= 1e-14

    def test_partial_last_chunk(self, monkeypatch):
        # with one core, n_psi = 1023 gives 512 ring points per row and 128
        # rows per chunk, so 2049 rows leave a last chunk of one row (on 3
        # cores a chunk would hold 42 rows and the last one 33)
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 1)
        assert 2049 % (classical_walk._RING_CHUNK_POINTS // 512) == 1
        thetas = np.linspace(0.0, math.pi, 2049)
        values = eval_legendre(4, np.cos(thetas))
        out = ring_average(thetas, values, 0.7, n_psi=1023)
        want = full_ring_average(thetas, values, 0.7, n_psi=1023)
        assert np.max(np.abs(out - want)) <= 1e-14

    def test_moved_node_rejected(self):
        thetas = np.linspace(0.0, math.pi, 4096)
        thetas[1000] += 1e-9
        with pytest.raises(DomainError, match=r"4096 grid points: largest \|theta_i - "
                                              r"i pi/\(N-1\)\| 9\.999999717180685e-10 "
                                              r"exceeds STRUCTURE_TOL"):
            ring_average(thetas, np.ones_like(thetas), 0.5)

    def test_coarse_grid_rejected(self):
        thetas = np.linspace(0.0, math.pi, 512)
        with pytest.raises(AccuracyError):
            ring_average(thetas, np.ones_like(thetas), 0.5)


class TestRingWorkers:
    """ring_average's worker threads: the result is the one-worker result."""

    @staticmethod
    def _profile(n_grid):
        thetas = np.linspace(0.0, math.pi, n_grid)
        return thetas, np.exp(np.cos(thetas)) * (1.0 + np.sin(3.0 * thetas))

    @pytest.mark.parametrize("n_psi", [1, 2, 1023, 1024])
    @pytest.mark.parametrize("n_grid", [2048, 2049, 32768])
    def test_bit_identical_to_one_worker(self, monkeypatch, n_grid, n_psi):
        # 2049 rows with n_psi = 1023 leave a last chunk of one row for
        # one, two and four workers alike
        thetas, values = self._profile(n_grid)
        results = {}
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(classical_walk, "_cpu_count", lambda: cpus)
            results[cpus] = ring_average(thetas, values, 0.5, n_psi=n_psi)
        for cpus in (2, 3, 4):
            assert np.array_equal(results[cpus], results[1]), cpus

    def test_concurrent_calls_match_sequential(self, monkeypatch):
        # each call's workers have buffers of their own: two calls at once,
        # with more workers than cores and frequent thread switches, give
        # the sequential results bit for bit
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 4)
        thetas, values = self._profile(4096)
        inputs = [(thetas, values, 0.5), (thetas, np.cos(thetas), 1.2)]
        want = [ring_average(*args) for args in inputs]
        got = [[] for _ in inputs]

        def call(k):
            for _ in range(5):
                got[k].append(ring_average(*inputs[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(2):
            assert len(got[k]) == 5
            assert all(np.array_equal(out, want[k]) for out in got[k])

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # the calling thread is worker 0; the fault is raised in the other
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 2)
        take = np.take
        helper_calls = []

        def failing_take(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                helper_calls.append(1)
                raise RuntimeError("fault in a helper thread")
            return take(*args, **kwargs)

        thetas, values = self._profile(4096)
        monkeypatch.setattr(np, "take", failing_take)
        with pytest.raises(RuntimeError, match="fault in a helper thread"):
            ring_average(thetas, values, 0.5)
        assert helper_calls == [1]


class TestFidelitySeries:
    def test_fitted_step_reproduces_quantum_decay(self):
        j = SpinLabel(10)
        series = classical_fidelity_series(j, fitted_step(j), 300)
        quantum = closed_form_fidelity(j, series.steps)
        assert np.max(np.abs(series.fidelity - quantum)) <= 1e-10

    def test_right_angle_kick_erases_information(self):
        series = classical_fidelity_series(SpinLabel(6), math.pi / 2.0, 5)
        assert np.max(np.abs(series.fidelity[1:] - 0.5)) < 1e-12

    @pytest.mark.parametrize("twice_j,alpha", [(9, 0.4), (40, 2.0), (3, math.pi)])
    def test_series_equals_per_step_walk(self, twice_j, alpha):
        j = SpinLabel(twice_j)
        series = classical_fidelity_series(j, alpha, 60)
        spec = initial_spectrum(j)
        for n in series.steps:
            walked = walk_evolve(spec, WalkParameters(alpha, int(n)))
            assert series.fidelity[n] == pytest.approx(
                classical_fidelity(walked), abs=1e-15
            )

    def test_large_frame_series_meets_closed_form(self):
        # 2j = 1000 once failed: quadrature error in c_1 exceeded 1e-10
        j = SpinLabel(1000)
        series = classical_fidelity_series(j, fitted_step(j), 1000)
        assert series.max_abs_diff <= 1e-12

    def test_zero_angle_keeps_fidelity_constant(self):
        j = SpinLabel(6)
        series = classical_fidelity_series(j, 0.0, 5)
        start = 0.5 + j.j / (2.0 * j.j + 1.0)
        assert np.max(np.abs(series.fidelity - start)) < 1e-10

    def test_closed_form_check_names_size_step_and_tolerance(self, monkeypatch):
        # an amplitude 1e-9 off breaks ORACLE_TOL most at step 0, where
        # cos(alpha)^n = 1
        spectrum = classical_walk.multipole_spectrum
        monkeypatch.setattr(classical_walk, "multipole_spectrum", lambda j: dataclasses.replace(
            spectrum(j), amplitude=spectrum(j).amplitude + 1e-9))
        with pytest.raises(InternalConsistencyError) as caught:
            classical_fidelity_series(SpinLabel(20), 0.3, 10)
        assert str(caught.value).startswith(
            "classical_walk.classical_fidelity_series: 2j=20, step 0: ")
        assert "exceeds ORACLE_TOL = 1e-10" in str(caught.value)


class TestAngularSpread:
    def test_variance_matches_coherent_state_at_large_spin(self):
        var = angular_variance(SpinLabel(200))
        assert 0.95 <= var * 200 <= 1.05

    def test_variance_within_five_percent_from_forty(self):
        for twice_j in (40, 64, 120):
            var = angular_variance(SpinLabel(twice_j))
            assert abs(var * twice_j - 1.0) < 0.05

    def test_small_spin_variance_is_finite_positive(self):
        var = angular_variance(SpinLabel(1))
        assert 0.0 < var < math.pi**2

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 200, 1000])
    def test_variance_is_twice_the_trigamma(self, twice_j):
        # profile cos^(2N)(theta/2) with N = 2 (2j): Var = 2 psi_1(N + 1)
        want = 2.0 * polygamma(1, 2 * twice_j + 1)
        assert abs(angular_variance(SpinLabel(twice_j)) - want) <= 1e-12 * want

    def test_gaussian_profile_approximation(self):
        twice_j = 200
        j = twice_j / 2.0
        theta = np.linspace(0.0, j ** (-0.25), 2001)
        profile = np.cos(theta / 2.0) ** (4 * twice_j)
        gaussian = np.exp(-j * theta**2)
        assert np.max(np.abs(profile - gaussian)) < 0.02


class TestWalkPositivity:
    @pytest.mark.parametrize("twice_j", [1, 4, 12, 40])
    def test_reconstructions_stay_positive_along_fitted_walk(self, twice_j):
        j = SpinLabel(twice_j)
        spec = initial_spectrum(j)
        gains = eval_legendre(
            np.arange(spec.l_max + 1), math.cos(fitted_step(j))
        )
        steps = np.arange(0, 10 * (twice_j / 2.0) ** 2 + 1, dtype=int)
        grid = np.cos(np.linspace(0.0, math.pi, 4096))
        from numpy.polynomial.legendre import legvander

        basis = legvander(grid, spec.l_max)
        # columns: p^(n) on the grid for every n at once
        values = basis @ (spec.coeffs[:, None] * (gains[:, None] ** steps[None, :]))
        assert values.min() >= -1e-6
