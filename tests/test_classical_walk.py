"""Legendre pipeline against quadrature and grid ring-average oracles."""

import itertools
import math
import sys
import threading
import time
import timeit
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legval
from scipy.special import eval_legendre, polygamma

from drfsim import (
    DomainError,
    InternalConsistencyError,
    LegendreSpectrum,
    SpinLabel,
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
        walked = walk_evolve(spec, 0.0, 17)
        assert np.array_equal(walked.coeffs, spec.coeffs)

    def test_normalisation_preserved(self):
        spec = initial_spectrum(SpinLabel(4))
        walked = walk_evolve(spec, 0.7, 300)
        assert walked.coeffs[0] == 1.0

    def test_c1_decays_as_cosine_power(self):
        spec = initial_spectrum(SpinLabel(6))
        alpha, n = 0.3, 25
        walked = walk_evolve(spec, alpha, n)
        assert walked.coeffs[1] == pytest.approx(
            spec.coeffs[1] * math.cos(alpha) ** n, rel=1e-13
        )

    def test_spectral_decay(self):
        spec = initial_spectrum(SpinLabel(8))
        for alpha in (0.1, 0.5, 1.0, 2.5):
            walked = walk_evolve(spec, alpha, 3)
            assert np.all(np.abs(walked.coeffs[1:]) <= np.abs(spec.coeffs[1:]) + 1e-15)

    @pytest.mark.parametrize("twice_j", [1, 20, 1000])
    def test_gains_equal_scipy_legendre_at_fitted_step(self, twice_j):
        # one kick scales c_l by P_l(cos alpha), bit for bit as scipy evaluates it
        spec = initial_spectrum(SpinLabel(twice_j))
        alpha = fitted_step(SpinLabel(twice_j))
        walked = walk_evolve(spec, alpha, 1)
        gains = eval_legendre(np.arange(spec.l_max + 1), math.cos(alpha))
        assert np.array_equal(walked.coeffs[1:], spec.coeffs[1:] * gains[1:])

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=math.pi),
           twice_j=st.integers(min_value=1, max_value=300))
    def test_gains_match_scipy_legendre(self, alpha, twice_j):
        spec = LegendreSpectrum(np.ones(4 * twice_j + 1))
        walked = walk_evolve(spec, alpha, 1)
        gains = eval_legendre(np.arange(spec.l_max + 1), math.cos(alpha))
        assert np.max(np.abs(walked.coeffs[1:] - gains[1:])) <= STRUCTURE_TOL


class TestLegendreValues:
    @pytest.mark.parametrize("l_max", [1, 2, 40])
    def test_array_and_scalar_routes_give_the_same_bits(self, l_max):
        # reconstruct passes an array of cos(theta), walk_evolve one float
        # cos(alpha): both go through the same steps, element by element
        xs = np.array([-1.0, -0.6, 1e-3, 0.3, math.cos(0.01), 1.0])
        by_array = [np.broadcast_to(p, xs.shape)
                    for p in classical_walk._legendre_values(l_max, xs)]
        by_scalar = np.transpose(
            [list(classical_walk._legendre_values(l_max, float(x))) for x in xs])
        assert np.array_equal(by_array, by_scalar)


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
        spec = walk_evolve(initial_spectrum(SpinLabel(9)), alpha, n)
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


def _smooth_profile(thetas):
    return np.exp(np.cos(thetas)) * (1.0 + np.sin(3.0 * thetas))


def _last_node_spike(thetas):
    spike = np.zeros(len(thetas))
    spike[-1] = 1.0
    return spike


# the psi sum is exact below degree n_psi = 256 and the cubic's error is
# O(h^4), so the law holds near rounding for l <= 8 and within criterion 4's
# 1e-7 up to l = 255
_LOW_DEGREES = [(ell, 1e-13) for ell in range(1, 9)]
_SWEEP = _LOW_DEGREES + [(ell, 1e-7) for ell in (16, 32, 64, 128, 255)]


class TestRingAverage:
    @pytest.mark.parametrize("n_grid,alpha,bounds", [
        *[pytest.param(32768, alpha, _SWEEP, id=f"32768-{round(alpha, 3)}")
          for alpha in (0.1, 0.5, 1.0, math.pi / 2.0, 3.0)],
        pytest.param(4096, 0.8, [(0, 1e-14)], id="uniform-4096-0.8"),
        pytest.param(16384, 0.6, _LOW_DEGREES, id="16384-0.6"),
    ])
    def test_eigenvalue_law(self, ring_law_error, n_grid, alpha, bounds):
        # each P_l(cos theta) is an eigenfunction with eigenvalue P_l(cos alpha)
        failures = []
        for ell, bound in bounds:
            worst = ring_law_error(n_grid, alpha, ell)
            if not worst < bound:
                failures.append(f"{n_grid} nodes, l={ell}, alpha={alpha}: "
                                f"{worst:.3e} >= {bound:g}")
        assert not failures, failures

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

    @pytest.mark.parametrize("profile,n_grid,alpha,n_psi,one_worker", [
        # the ring integrand depends on psi only via cos(psi), so the half
        # ring must equal the full one
        *[pytest.param(_smooth_profile, 2048, 0.7, n_psi, False,
                       id=f"half-ring-{n_psi}") for n_psi in (1, 2, 7, 64, 65)],
        *[pytest.param(_last_node_spike, n_grid, 3.0, 256, False,
                       id=f"last-node-{n_grid}-3.0") for n_grid in (2048, 2049, 32768)],
        # theta = pi/2 is node 1024, so its ring reaches theta' = pi and i = N - 1
        pytest.param(_last_node_spike, 2049, math.pi / 2.0, 256, False,
                     id="last-node-2049-1.571"),
        # near theta = 0 every ring point sits near theta' = alpha, so a
        # ring's terms are alike; a BLAS dot product summed them 13 ulp off
        pytest.param(_smooth_profile, 2049, 0.5, 1023, False, id="smooth-profile"),
        pytest.param(lambda thetas: eval_legendre(4, np.cos(thetas)), 2049, 0.7, 1023,
                     True, id="partial-last-chunk"),
    ])
    def test_matches_full_ring_reference(self, monkeypatch, profile, n_grid, alpha,
                                         n_psi, one_worker):
        if one_worker:
            # n_psi = 1023 gives 512 ring points per row and 64 rows per
            # chunk on any number of cores, so 2049 rows leave a last chunk
            # of one row
            monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 1)
            assert n_grid % (classical_walk._RING_CHUNK_POINTS // 512) == 1
        thetas = np.linspace(0.0, math.pi, n_grid)
        values = profile(thetas)
        out = ring_average(thetas, values, alpha, n_psi=n_psi)
        assert out.max() > 0.0  # a spike no ring reaches would compare 0 with 0
        want = full_ring_average(thetas, values, alpha, n_psi=n_psi)
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
        with pytest.raises(DomainError, match=r"^classical_walk\.ring_average: grid of 512 "
                                              r"points is too coarse \(need >= 2048\)$"):
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

    @staticmethod
    def _in_thread(call):
        # the call in a thread of its own, so that a hang fails the test
        result = {}

        def run():
            try:
                result["value"] = call()
            except BaseException as exc:
                result["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        return result

    def test_every_chunk_once_under_contention(self, monkeypatch):
        # more workers than cores and frequent thread switches: each of the
        # 128 chunks (64 rows of 512 ring points) is computed once, and the
        # result is the one-worker result bit for bit
        thetas, values = self._profile(8192)
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 1)
        want = ring_average(thetas, values, 0.5, n_psi=1023)
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 8)
        arccos = np.arccos
        chunks = []

        def counting_arccos(*args, **kwargs):
            chunks.append(len(args[0]))  # called once per chunk
            return arccos(*args, **kwargs)

        monkeypatch.setattr(np, "arccos", counting_arccos)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = self._in_thread(lambda: ring_average(thetas, values, 0.5, n_psi=1023))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(result["value"], want)
        assert chunks == [64] * 128

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # the first chunk to reach np.take faults in a pool thread; the caller
        # raises that fault, and no other chunk faults
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 2)
        take = np.take
        faults = []

        def failing_take(*args, **kwargs):
            if not faults:
                faults.append(threading.current_thread())
                raise RuntimeError("fault in a pool thread")
            return take(*args, **kwargs)

        thetas, values = self._profile(4096)
        monkeypatch.setattr(np, "take", failing_take)
        with pytest.raises(RuntimeError, match="fault in a pool thread"):
            ring_average(thetas, values, 0.5)
        assert len(faults) == 1 and faults[0] is not threading.current_thread()

    def test_fault_is_raised_once_the_other_chunks_finish(self, monkeypatch):
        # the first chunk to reach np.arccos faults once a second chunk has
        # started, and that chunk sleeps before it goes on: the caller sees
        # the fault only after the second chunk has finished and every pool
        # thread has stopped
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 2)
        arccos = np.arccos
        tickets = itertools.count()
        second_started = threading.Event()
        finished = []

        def slow_arccos(*args, **kwargs):
            ticket = next(tickets)
            if ticket == 0:
                if not second_started.wait(timeout=30.0):
                    raise TimeoutError("no second chunk started")
                raise RuntimeError("fault in the first chunk")
            if ticket == 1:
                second_started.set()
                time.sleep(0.2)
                finished.append(ticket)
            return arccos(*args, **kwargs)

        thetas, values = self._profile(4096)
        before = set(threading.enumerate())
        monkeypatch.setattr(np, "arccos", slow_arccos)
        result = self._in_thread(lambda: ring_average(thetas, values, 0.5, n_psi=1023))
        assert isinstance(result["error"], RuntimeError)
        assert str(result["error"]) == "fault in the first chunk"
        assert finished == [1]
        assert set(threading.enumerate()) <= before

    def test_call_after_a_fault_matches_one_worker(self, monkeypatch):
        # one worker, 64 chunks: the first chunk faults, the worker skips the
        # other 63 and the caller sees the fault; a second call on the same
        # inputs, with buffers of its own, returns the one-worker result
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: 1)
        thetas, values = self._profile(4096)
        want = ring_average(thetas, values, 0.5, n_psi=1023)
        clip = np.clip
        faults = []

        def failing_clip(*args, **kwargs):
            if not faults:
                faults.append(1)
                raise RuntimeError("fault in one chunk")
            return clip(*args, **kwargs)

        def call():
            return ring_average(thetas, values, 0.5, n_psi=1023)

        monkeypatch.setattr(np, "clip", failing_clip)
        first = self._in_thread(call)
        assert str(first["error"]) == "fault in one chunk"
        second = self._in_thread(call)
        assert faults == [1]
        assert np.array_equal(second["value"], want)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_one_buffer_set_per_worker(self, monkeypatch, cpus):
        # 32768 rows of 129 ring points make 130 chunks of 254 rows; the call
        # allocates one set (fractions, cell indices, gathered coefficients,
        # Horner accumulator) of the chunk shape for each of the W workers,
        # whatever the number of chunks
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: cpus)
        thetas, values = self._profile(32768)
        empty = np.empty
        allocated = []

        def counting_empty(shape, dtype=float, *args, **kwargs):
            allocated.append((shape, np.dtype(dtype)))
            return empty(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "empty", counting_empty)
        ring_average(thetas, values, 0.5)
        chunk = (classical_walk._RING_CHUNK_POINTS // 129, 129)
        assert chunk == (254, 129)
        sets = Counter(entry for entry in allocated if entry[0] == chunk)
        assert sets == Counter({(chunk, np.dtype(float)): 3 * cpus,
                                (chunk, np.dtype(np.intp)): cpus})

    @pytest.mark.parametrize("cpus,bound_mib", [(1, 2.73), (2, 4.24), (4, 7.36)])
    def test_traced_peak_per_worker(self, monkeypatch, cpus, bound_mib):
        # one 32768-row call after a warm-up call: the grid-sized arrays
        # (geometry, coefficient table, result) and 1 MB of buffers per
        # worker; the bounds are the peaks of the 2^16-point plan with three
        # buffers per worker (2.63 MiB, plus 0.1 MiB, at one worker)
        monkeypatch.setattr(classical_walk, "_cpu_count", lambda: cpus)
        thetas, values = self._profile(32768)
        ring_average(thetas, values, 0.5)
        tracemalloc.start()
        try:
            ring_average(thetas, values, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"{cpus} workers: {peak / 2**20:.2f} MiB"


class TestFidelitySeries:
    def test_fitted_step_reproduces_quantum_decay(self):
        j = SpinLabel(10)
        fidelity, _ = classical_fidelity_series(j, fitted_step(j), 300)
        quantum = closed_form_fidelity(j, np.arange(len(fidelity)))
        assert np.max(np.abs(fidelity - quantum)) <= 1e-10

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 20, 200])
    def test_returns_two_float_arrays_over_every_step(self, twice_j):
        j = SpinLabel(twice_j)
        returned = classical_fidelity_series(j, 0.4, 40)
        assert type(returned) is tuple and len(returned) == 2
        fidelity, closed = returned
        for array in returned:
            assert array.dtype == np.float64 and array.shape == (41,)
        assert not np.shares_memory(fidelity, closed)
        # the closed form 1/2 + A cos(alpha)^n, A = j/(2j+1)
        expected = 0.5 + (twice_j / 2.0) / (twice_j + 1.0) * math.cos(0.4) ** np.arange(41)
        assert np.max(np.abs(closed - expected)) <= 1e-15

    def test_right_angle_kick_erases_information(self):
        fidelity, _ = classical_fidelity_series(SpinLabel(6), math.pi / 2.0, 5)
        assert np.max(np.abs(fidelity[1:] - 0.5)) < 1e-12

    @pytest.mark.parametrize("twice_j,alpha", [(9, 0.4), (40, 2.0), (3, math.pi)])
    def test_series_equals_per_step_walk(self, twice_j, alpha):
        j = SpinLabel(twice_j)
        fidelity, _ = classical_fidelity_series(j, alpha, 60)
        spec = initial_spectrum(j)
        for n in range(len(fidelity)):
            walked = walk_evolve(spec, alpha, n)
            assert fidelity[n] == pytest.approx(
                classical_fidelity(walked), abs=1e-15
            )

    def test_large_frame_series_meets_closed_form(self):
        # 2j = 1000 once failed: quadrature error in c_1 exceeded 1e-10
        j = SpinLabel(1000)
        fidelity, closed = classical_fidelity_series(j, fitted_step(j), 1000)
        assert np.max(np.abs(fidelity - closed)) <= 1e-12

    def test_zero_angle_keeps_fidelity_constant(self):
        j = SpinLabel(6)
        fidelity, _ = classical_fidelity_series(j, 0.0, 5)
        start = 0.5 + 3.0 / 7.0  # A = j / (2j + 1) at j = 3
        assert np.max(np.abs(fidelity - start)) < 1e-10

    def test_closed_form_check_names_size_step_and_tolerance(self, monkeypatch):
        # an amplitude 1e-9 off breaks ORACLE_TOL most at step 0, where
        # cos(alpha)^n = 1
        first = classical_walk._first_multipole
        monkeypatch.setattr(classical_walk, "_first_multipole",
                            lambda j: (*first(j)[:4], first(j)[4] + 1e-9))
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

    def test_variance_is_the_trigamma_to_a_few_ulps_at_every_size(self):
        # 2 psi_1(2 (2j) + 1) to 50 digits; the shifted series rounds each of
        # its terms once and fsum adds them, so 4 units of 2^-53 bound it
        mpmath.mp.dps = 50
        sizes = [*range(1, 2001), 10**4, 10**5, 10**6, 10**9, 10**12, 2**59]
        for twice_j in sizes:
            want = 2 * mpmath.psi(1, 2 * twice_j + 1)
            error = abs(angular_variance(twice_j) - want) / want
            assert error <= 4 * 2.0**-53, f"2j={twice_j}: {float(error) * 2**53:.2f} ulps"

    def test_variance_takes_constant_time(self):
        assert min(timeit.repeat(lambda: angular_variance(2**59), number=1, repeat=5)) < 1e-3

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
