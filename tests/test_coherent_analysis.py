"""Grid construction and the active-set solver against brute-force oracles."""

import math
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfsim import (
    ConvergenceError,
    DecompositionResult,
    InternalConsistencyError,
    SpinLabel,
    build_grid,
    coherent_columns,
    coherent_populations,
    convexity_series,
    convexity_test,
    nnls_solve,
)
from drfsim import cli, coherent_analysis
from drfsim.tolerances import KKT_TOL, STRUCTURE_TOL

from brute_force import two_node_scan


class TestBuildGrid:
    def test_poles_only_for_half_spin(self):
        _, columns = build_grid(SpinLabel(1), 2)
        assert np.allclose(columns[:, 0], [0.0, 1.0])
        assert np.allclose(columns[:, 1], [1.0, 0.0])

    def test_columns_sum_to_one(self):
        _, columns = build_grid(SpinLabel(6), 30)
        assert np.max(np.abs(columns.sum(axis=0) - 1.0)) < 1e-12

    def test_grid_symmetric_in_cos_theta(self):
        thetas, _ = build_grid(SpinLabel(4), 17)
        cos = np.cos(thetas)
        assert np.max(np.abs(cos + cos[::-1])) < 1e-14

    def test_endpoints_present(self):
        thetas, _ = build_grid(SpinLabel(2), 9)
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("twice_j", [1, 2, 20, 80, 160])
    def test_pair_is_the_cos_uniform_nodes_and_their_columns(self, twice_j):
        j = SpinLabel(twice_j)
        thetas, columns = build_grid(j, 8 * j.dim)
        want = np.arccos(np.linspace(1.0, -1.0, 8 * j.dim))
        assert np.array_equal(thetas, want)
        assert np.array_equal(columns, coherent_columns(j, want))

    def test_column_sum_fault_names_grid_and_tolerance(self, monkeypatch, tmp_path, capsys):
        # the one check a computed grid can fail: reported by build_grid,
        # through convexity_test and the CLI alike
        exact = coherent_analysis.coherent_columns

        def scaled(j, thetas):
            columns = exact(j, thetas)
            columns[:, 1] *= 1.0 + 1e-9
            return columns

        monkeypatch.setattr(coherent_analysis, "coherent_columns", scaled)
        line = (r"coherent_analysis\.build_grid: 2j=4, 40 nodes: largest \|column sum - 1\| "
                r"\S+ exceeds STRUCTURE_TOL = 1e-12")
        for call in (lambda: build_grid(SpinLabel(4), 40),
                     lambda: convexity_test(SpinLabel(4), 1, 40)):
            with pytest.raises(InternalConsistencyError, match=f"^{line}$"):
                call()
        assert cli.main(["coherent-test", "--twice-j", "4", "--nodes", "40",
                         "--out", str(tmp_path / "c.csv")]) == 1
        assert re.fullmatch(f"error: coherent-test: {line}\n", capsys.readouterr().err)


class TestDecompositionResult:
    def test_callers_weights_stay_writable(self):
        # the result freezes a copy of the weights, not the caller's own array
        weights = np.array([0.25, 0.75])
        result = DecompositionResult(weights, 0.0, 0.0)
        assert weights.flags.writeable and result.weights is not weights
        assert not result.weights.flags.writeable


class TestNnlsSolve:
    def test_exact_member_of_family(self):
        _, columns = build_grid(SpinLabel(4), 21)
        target_index = 7
        result = nnls_solve(columns, columns[:, target_index])
        assert result.residual <= 1e-10
        assert result.weights[target_index] == pytest.approx(1.0, abs=1e-8)
        others = np.delete(result.weights, target_index)
        assert np.max(others) < 1e-8

    def test_two_column_convex_combination(self):
        _, columns = build_grid(SpinLabel(4), 21)
        i, k = 3, 15
        target = 0.5 * (columns[:, i] + columns[:, k])
        result = nnls_solve(columns, target)
        assert result.residual <= 1e-10
        assert result.weight_sum_gap <= 1e-9

    def test_maximally_mixed_matches_two_node_scan(self):
        # poles-only family: the optimum uses both columns, so the dense
        # two-node scan pins the exact value
        j = SpinLabel(2)
        thetas = np.array([0.0, math.pi / 2.0, math.pi])
        columns = np.column_stack([coherent_populations(j, t) for t in thetas[::2]])
        target = np.full(3, 1.0 / 3.0)
        result = nnls_solve(columns, target)
        scan = two_node_scan(columns, target)
        assert result.residual <= scan + 1e-12
        assert result.residual == pytest.approx(scan, abs=1e-5)
        assert result.residual == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_maximally_mixed_is_a_coherent_mixture(self):
        # the fully mixed state is the uniform average of coherent states,
        # so with enough nodes the fit succeeds
        result = nnls_solve(
            build_grid(SpinLabel(2), 9)[1], np.full(3, 1.0 / 3.0)
        )
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("n_columns", [3, 4, 5])
    def test_never_beaten_by_two_node_scan(self, n_columns):
        rng = np.random.default_rng(n_columns)
        j = SpinLabel(3)
        thetas = np.sort(rng.uniform(0.0, math.pi, n_columns))
        columns = np.column_stack([coherent_populations(j, t) for t in thetas])
        w_true = rng.random(n_columns)
        target = columns @ (w_true / w_true.sum())
        result = nnls_solve(columns, target)
        assert result.residual <= two_node_scan(columns, target) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_rows=st.integers(min_value=6, max_value=20))
    def test_recovers_random_sparse_combinations(self, seed, n_rows):
        # well-conditioned random columns: recovery is essentially exact
        rng = np.random.default_rng(seed)
        a = rng.random((n_rows, 2 * n_rows))
        w_true = np.zeros(2 * n_rows)
        support = rng.choice(2 * n_rows, size=3, replace=False)
        w_true[support] = rng.random(3) + 0.05
        b = a @ w_true
        scale = b.sum()
        result = nnls_solve(a, b / scale)
        assert result.residual <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           twice_j=st.integers(min_value=1, max_value=10))
    def test_recovery_gap_bound_on_collinear_columns(self, seed, twice_j):
        # coherent columns are nearly collinear, so the KKT exit threshold
        # tau = KKT_TOL = 1e-13 only guarantees an optimality gap
        # sqrt(2 tau ||w||_1), about 4.5e-7; the bound is the selftest's
        # NNLS_MIXTURE_TOL
        rng = np.random.default_rng(seed)
        n_nodes = 4 * (twice_j + 1)
        _, columns = build_grid(SpinLabel(twice_j), n_nodes)
        w_true = np.zeros(n_nodes)
        support = rng.choice(n_nodes, size=3, replace=False)
        w_true[support] = rng.random(3) + 0.05
        w_true /= w_true.sum()
        result = nnls_solve(columns, columns @ w_true)
        assert result.residual <= 2e-5

    def test_kkt_conditions_at_exit(self):
        _, columns = build_grid(SpinLabel(4), 40)
        target = np.full(5, 0.2)
        result = nnls_solve(columns, target)
        dual = columns.T @ (target - columns @ result.weights)
        assert dual.max() <= KKT_TOL
        assert result.weights.min() >= 0.0

    def test_iteration_cap_reports_best_iterate(self, monkeypatch):
        monkeypatch.setattr(coherent_analysis, "_CAP_PER_COLUMN", 0)
        _, columns = build_grid(SpinLabel(2), 12)
        target = np.full(3, 1.0 / 3.0)
        with pytest.raises(ConvergenceError) as excinfo:
            nnls_solve(columns, target)
        best = excinfo.value.result
        assert best is not None
        assert best.weights.shape == (12,)
        assert best.residual >= 0.0

    def test_iteration_cap_message_names_cap_dual_and_tolerance(self, monkeypatch):
        monkeypatch.setattr(coherent_analysis, "_CAP_PER_COLUMN", 0)
        _, columns = build_grid(SpinLabel(2), 12)
        target = np.full(3, 1.0 / 3.0)
        dual = float((columns.T @ target).max())  # at w = 0
        with pytest.raises(ConvergenceError) as excinfo:
            nnls_solve(columns, target)
        message = str(excinfo.value)
        assert message.startswith("coherent_analysis.nnls_solve: iteration cap 0 ")
        assert f"largest bound dual {dual:.3e}" in message
        assert "KKT_TOL = 1e-13" in message


class TestWarmStart:
    """The Lawson-Hanson loop from a given support, as convexity_series runs
    it, and the exit test it relies on."""

    def test_exit_reaches_the_minimum(self):
        # at KKT_TOL = 1e-10 the cold fit stopped at 2.589e-6 here, seven
        # times the minimum
        j, n_nodes = SpinLabel(44), 360
        result = convexity_test(j, 8, n_nodes)
        assert result.residual <= 3.8e-7
        _, columns = build_grid(j, n_nodes)
        state = list(islice(coherent_analysis._evolved_populations(44), 9))[-1]
        dual = columns.T @ (state - columns @ result.weights)
        assert dual[result.weights == 0.0].max() <= KKT_TOL

    def test_start_on_the_optimal_support_gives_the_cold_fit(self):
        _, columns = build_grid(SpinLabel(4), 40)
        target = np.full(5, 0.2)
        cold = nnls_solve(columns, target)
        warm = coherent_analysis._lawson_hanson(columns, target, cold.weights > 0.0, "")
        assert np.array_equal(warm.weights > 0.0, cold.weights > 0.0)
        assert warm.residual == cold.residual

    @pytest.mark.parametrize("support", ["all", "none"])
    def test_start_without_a_positive_solution_is_cold(self, support):
        # 40 columns on 5 rows: the least-squares solution on every column
        # has negative entries, so the loop starts from w = 0
        _, columns = build_grid(SpinLabel(4), 40)
        target = coherent_populations(SpinLabel(4), 0.3)
        start = np.full(40, support == "all")
        cold = nnls_solve(columns, target)
        warm = coherent_analysis._lawson_hanson(columns, target, start, "")
        assert warm.residual == cold.residual
        assert np.array_equal(warm.weights, cold.weights)

    def test_series_makes_fewer_solves_than_cold_fits(self, monkeypatch):
        # a count of least-squares solves, not a timing: the cold series
        # made 49 at 2j = 200, and the cold fit at n = 8 makes 6
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: solves.append(1) or lstsq(*args, **kwargs))
        convexity_series(SpinLabel(200), 8, 1608)
        assert len(solves) <= 16
        solves.clear()
        convexity_test(SpinLabel(200), 8, 1608)
        assert len(solves) == 6


class TestGridRefinement:
    def test_residual_non_increasing_under_nested_refinement(self):
        # doubling the resolution with shared nodes (n -> 2n - 1) enlarges
        # the candidate family, so the optimum cannot get worse
        j = SpinLabel(4)
        previous = None
        for n_nodes in (11, 21, 41, 81):
            result = convexity_test(j, 2, n_nodes)
            if previous is not None:
                assert result.residual <= previous + 1e-12
            previous = result.residual


class TestConvexityTest:
    @pytest.mark.parametrize("twice_j", [1, 2, 4])
    def test_unevolved_state_is_coherent(self, twice_j):
        result = convexity_test(SpinLabel(twice_j), 0, 8 * (twice_j + 1))
        assert result.residual <= 1e-10

    def test_one_step_state_is_not_a_mixture(self):
        result = convexity_test(SpinLabel(2), 1, 24)
        assert result.residual > 1e-6
        doubled = convexity_test(SpinLabel(2), 1, 48)
        assert abs(doubled.residual - result.residual) < 0.1 * result.residual

    def test_weights_are_feasible(self):
        result = convexity_test(SpinLabel(4), 3, 40)
        assert result.weights.min() >= 0.0
        assert result.residual >= 0.0

    @pytest.mark.parametrize("twice_j,n_nodes", [(2, 24), (5, 48)])
    def test_series_equals_separate_tests(self, twice_j, n_nodes):
        j = SpinLabel(twice_j)
        series = convexity_series(j, 4, n_nodes)
        assert len(series) == 5
        for n, result in enumerate(series):
            single = convexity_test(j, n, n_nodes)
            if single.residual < 1e-12 and twice_j == 2:
                # an exact mixture: its weights are not unique, so a warm
                # start may reach another one
                assert abs(result.residual - single.residual) <= STRUCTURE_TOL
                continue
            assert result.residual == single.residual
            assert np.array_equal(result.weights, single.weights)

    def test_cap_errors_name_frame_step_and_grid(self, monkeypatch):
        monkeypatch.setattr(coherent_analysis, "_CAP_PER_COLUMN", 0)
        calls = [
            ("convexity_test", lambda: convexity_test(SpinLabel(4), 3, 40), "n=3"),
            ("convexity_series", lambda: convexity_series(SpinLabel(4), 2, 40), "n=0"),
        ]
        for name, call, step in calls:
            with pytest.raises(ConvergenceError) as excinfo:
                call()
            message = str(excinfo.value)
            assert message.startswith(
                f"coherent_analysis.{name}: 2j=4, {step}, n_nodes=40: "
                "coherent_analysis.nnls_solve: iteration cap 0 "
            )
            assert "KKT_TOL" in message
            assert excinfo.value.result.weights.shape == (40,)

    def test_fits_scan_no_data_that_was_checked_when_made(self, monkeypatch):
        # the grid and the states are checked where they are built, so the
        # fits enter the loop past nnls_solve's checks; nnls_solve keeps them
        scanned = []
        check = coherent_analysis._check_finite
        monkeypatch.setattr(coherent_analysis, "_check_finite",
                            lambda name, values: scanned.append(name) or check(name, values))
        convexity_series(SpinLabel(8), 4, 72)
        convexity_test(SpinLabel(8), 3, 72)
        assert scanned == []
        _, columns = build_grid(SpinLabel(8), 72)
        state = next(islice(coherent_analysis._evolved_populations(8), 3, None))
        nnls_solve(columns, state)
        assert scanned == ["matrix A", "target b"]


@pytest.mark.slow
@pytest.mark.parametrize("twice_j", [*range(1, 61), 80, 120, 200])
def test_warm_series_matches_cold_fits(twice_j):
    # each warm fit against a cold nnls_solve on the same grid: the same
    # support and residual bits, except where the state is an exact mixture
    j = SpinLabel(twice_j)
    n_nodes = 8 * j.dim
    _, columns = build_grid(j, n_nodes)
    series = convexity_series(j, 8, n_nodes)
    for n, state in enumerate(islice(coherent_analysis._evolved_populations(twice_j), 9)):
        cold, warm = nnls_solve(columns, state), series[n]
        if cold.residual < 1e-12:
            assert warm.residual < 1e-12, f"2j={twice_j}, n={n}"
            continue
        assert np.array_equal(warm.weights > 0.0, cold.weights > 0.0), f"2j={twice_j}, n={n}"
        assert warm.residual == cold.residual, f"2j={twice_j}, n={n}"
