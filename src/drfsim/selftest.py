"""Randomised structural self-checks, exposed through the CLI --selftest flag.

Every check uses a fixed seed so runs are reproducible; sizes cover
2j = 1 ... 20.
"""

from __future__ import annotations

import sys

import numpy as np

from . import angular_momentum as am
from . import classical_walk as cw
from . import coherent_analysis as ca
from . import quantum_drf as qd
from .tolerances import (
    EIGENVALUE_FLOOR,
    NNLS_MIXTURE_TOL,
    NNLS_RECOVERY_TOL,
    ORACLE_TOL,
    POSITIVITY_ALLOWANCE,
    STRUCTURE_TOL,
)

DEFAULT_SEED = 1234
_TWICE_J_RANGE = range(1, 21)


def _random_dense_state(rng, j):
    d = j.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return qd.FrameState.from_matrix(j, rho / rho.trace().real)


def _random_diagonal_state(rng, j):
    p = rng.random(j.dim) + 1e-3
    return qd.FrameState.from_populations(j, p / p.sum())


def _check_kraus_completeness(rng):
    worst = max(
        qd.build_kraus(am.SpinLabel(tj)).completeness_defect()
        for tj in _TWICE_J_RANGE
    )
    assert worst <= STRUCTURE_TOL, f"completeness defect {worst:.3e}"


def _check_trace_preservation(rng):
    worst = 0.0
    for tj in _TWICE_J_RANGE:
        j = am.SpinLabel(tj)
        kraus = qd.build_kraus(j)
        for state in (_random_dense_state(rng, j), _random_diagonal_state(rng, j)):
            mapped = qd.apply_map(state, kraus)
            worst = max(worst, abs(np.sum(mapped.populations) - 1.0))
    assert worst <= STRUCTURE_TOL, f"trace drift {worst:.3e}"


def _check_positivity(rng):
    worst = 0.0
    for tj in _TWICE_J_RANGE:
        j = am.SpinLabel(tj)
        kraus = qd.build_kraus(j)
        mapped = qd.apply_map(_random_dense_state(rng, j), kraus)
        worst = min(worst, float(np.linalg.eigvalsh(mapped.matrix).min()))
    assert worst >= EIGENVALUE_FLOOR, f"negative eigenvalue {worst:.3e}"


def _check_diagonal_closure(rng):
    for tj in (1, 5, 12, 20):
        j = am.SpinLabel(tj)
        kraus = qd.build_kraus(j)
        mapped = qd.apply_map(_random_diagonal_state(rng, j), kraus)
        assert mapped.diagonal, "diagonal flag was lost"
        off = mapped.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0), "off-diagonal entries appeared"


def _check_fixed_point(rng):
    for tj in (1, 4, 9, 20):
        j = am.SpinLabel(tj)
        mixed = qd.FrameState.maximally_mixed(j)
        mapped = qd.apply_map(mixed, qd.build_kraus(j))
        drift = np.max(np.abs(mapped.populations - mixed.populations))
        assert drift <= STRUCTURE_TOL, f"mixed state drifted by {drift:.3e}"


def _check_legendre_normalization(rng):
    for tj in _TWICE_J_RANGE:
        spec = cw.initial_spectrum(am.SpinLabel(tj))
        assert spec.coeffs[0] == 1.0, "c_0 is not exactly 1"
        alpha = cw.fitted_step(am.SpinLabel(tj))
        walked = cw.walk_evolve(spec, cw.WalkParameters(alpha, int(rng.integers(1, 50))))
        assert walked.coeffs[0] == 1.0, "walk broke normalisation"


def _check_reconstruction_positivity(rng):
    for tj in (1, 4, 10, 20):
        j = am.SpinLabel(tj)
        spec = cw.initial_spectrum(j)
        alpha = cw.fitted_step(j)
        for n in (1, tj**2, 5 * tj**2):
            walked = cw.walk_evolve(spec, cw.WalkParameters(alpha, n))
            worst = walked.min_reconstructed()
            assert worst >= -POSITIVITY_ALLOWANCE, (
                f"2j={tj}, n={n}: reconstruction dips to {worst:.3e}"
            )


def _check_coherent_populations(rng):
    for _ in range(25):
        tj = int(rng.integers(1, 21))
        theta = float(rng.uniform(0.0, np.pi))
        j = am.SpinLabel(tj)
        p = am.coherent_populations(j, theta)
        assert abs(p.sum() - 1.0) <= STRUCTURE_TOL, "populations do not sum to 1"
        mirrored = am.coherent_populations(j, np.pi - theta)
        assert np.max(np.abs(p - mirrored[::-1])) <= STRUCTURE_TOL, (
            "theta -> pi - theta, m -> -m symmetry broken"
        )


def _check_decay_law(rng):
    for tj in (1, 7, 20):
        series = qd.evolve(am.SpinLabel(tj), 200)
        assert series.max_abs_diff <= ORACLE_TOL, (
            f"2j={tj}: map strays {series.max_abs_diff:.3e} from the closed form"
        )


def _check_nnls_recovery(rng):
    # well-conditioned random instances recover essentially exactly
    for _ in range(5):
        rows = int(rng.integers(6, 16))
        a = rng.random((rows, 2 * rows))
        w_true = np.zeros(2 * rows)
        support = rng.choice(2 * rows, size=3, replace=False)
        w_true[support] = rng.random(3) + 0.1
        b = a @ w_true
        result = ca.nnls_solve(a, b / b.sum())
        assert result.residual <= NNLS_RECOVERY_TOL, (
            f"recovery residual {result.residual:.3e} exceeds "
            f"NNLS_RECOVERY_TOL = {NNLS_RECOVERY_TOL:g}"
        )
    # collinear coherent columns: bounded by the KKT optimality gap
    for _ in range(5):
        tj = int(rng.integers(2, 11))
        grid = ca.build_grid(am.SpinLabel(tj), 4 * (tj + 1))
        w_true = np.zeros(grid.n_nodes)
        support = rng.choice(grid.n_nodes, size=3, replace=False)
        w_true[support] = rng.random(3) + 0.1
        w_true /= w_true.sum()
        result = ca.nnls_solve(grid.columns, grid.columns @ w_true)
        assert result.residual <= NNLS_MIXTURE_TOL, (
            f"mixture residual {result.residual:.3e} exceeds "
            f"NNLS_MIXTURE_TOL = {NNLS_MIXTURE_TOL:g}"
        )


CHECKS = [
    ("kraus completeness", _check_kraus_completeness),
    ("trace preservation", _check_trace_preservation),
    ("positivity of mapped states", _check_positivity),
    ("diagonal closure", _check_diagonal_closure),
    ("maximally mixed fixed point", _check_fixed_point),
    ("decay law vs closed form", _check_decay_law),
    ("legendre normalization", _check_legendre_normalization),
    ("reconstructed distribution positivity", _check_reconstruction_positivity),
    ("coherent population sums and symmetry", _check_coherent_populations),
    ("nnls recovery of known mixtures", _check_nnls_recovery),
]


def run_selftest(seed: int = DEFAULT_SEED, stream=None):
    """Run every structural check; returns (passed, failed) counts."""
    stream = stream if stream is not None else sys.stdout
    passed = failed = 0
    for name, check in CHECKS:
        rng = np.random.default_rng([seed, passed + failed])
        try:
            check(rng)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", file=stream)
        except Exception as exc:  # structural checks must not crash
            failed += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}", file=stream)
        else:
            passed += 1
            print(f"ok   {name}", file=stream)
    print(f"selftest: {passed} passed, {failed} failed", file=stream)
    return passed, failed
