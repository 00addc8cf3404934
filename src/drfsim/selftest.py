"""Randomised structural self-checks, exposed through the CLI --selftest flag.

Every check uses a fixed seed so runs are reproducible; sizes cover
2j = 1 ... 20.  A check fails through :func:`~drfsim.tolerances.require`, its
own or that of the state or Kraus set it builds, so it fails under ``python -O``
too.  Any package error prints a ``FAIL`` line with its message, which names the
2j, the observed value and the tolerance; other errors are labelled ``unexpected``.
"""

from __future__ import annotations

import sys

import numpy as np

from . import angular_momentum as am
from . import classical_walk as cw
from . import coherent_analysis as ca
from . import quantum_drf as qd
from .errors import DrfsimError, InternalConsistencyError, _check_count
from .spectrum import fitted_step
from .tolerances import require

DEFAULT_SEED = 1234
_TWICE_J_RANGE = range(1, 21)


def _random_dense_state(rng, twice_j):
    d = twice_j + 1
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return qd.FrameState(rho / rho.trace().real)


def _random_diagonal_state(rng, twice_j):
    p = rng.random(twice_j + 1) + 1e-3
    return qd.FrameState(p / p.sum())


def _check_kraus_completeness(rng):
    for tj in _TWICE_J_RANGE:
        qd.build_kraus(tj)  # requires its completeness defect within STRUCTURE_TOL


def _check_trace_preservation(rng):
    for tj in _TWICE_J_RANGE:
        for state in (_random_dense_state(rng, tj), _random_diagonal_state(rng, tj)):
            qd.apply_map(state)  # FrameState requires |trace - 1| <= STRUCTURE_TOL


def _check_positivity(rng):
    for tj in _TWICE_J_RANGE:
        # FrameState requires every eigenvalue of the mapped state >= EIGENVALUE_FLOOR
        qd.apply_map(_random_dense_state(rng, tj))


def _check_diagonal_closure(rng):
    for tj in (1, 5, 12, 20):
        # dense, so the Kraus sandwich runs rather than the diagonal flux step
        mapped = qd.apply_map(qd.FrameState(_random_diagonal_state(rng, tj).matrix))
        off = mapped.matrix.copy()
        np.fill_diagonal(off, 0.0)
        if not np.all(off == 0.0):
            raise InternalConsistencyError(
                f"2j={tj}: a diagonal state mapped to a non-diagonal one")


def _check_fixed_point(rng):
    for tj in (1, 4, 9, 20):
        mixed = qd.FrameState.maximally_mixed(tj)
        # dense: the flux step maps the uniform vector to itself whatever the rates
        mapped = qd.apply_map(qd.FrameState(mixed.matrix))
        require(f"2j={tj}", "drift of the maximally mixed state",
                np.max(np.abs(mapped.populations - mixed.populations)), "STRUCTURE_TOL")


def _check_legendre_normalization(rng):
    # c_0 = 1 is held by LegendreSpectrum; c_1 and c_2 after n kicks against
    # c_l(0) P_l(cos alpha)^n by the closed forms of P_1 and P_2
    for tj in _TWICE_J_RANGE:
        spec = cw.initial_spectrum(tj)
        alpha = fitted_step(tj)
        n = int(rng.integers(1, 50))
        walked = cw.walk_evolve(spec, alpha, n)
        x = np.cos(alpha)
        for ell, p in ((1, x), (2, (3.0 * x * x - 1.0) / 2.0)):
            want = spec.coeffs[ell] * p**n
            require(f"2j={tj}, n={n}, l={ell}", "relative gap from c_l(0) P_l(cos alpha)^n",
                    abs(walked.coeffs[ell] - want) / abs(want), "STRUCTURE_TOL")


def _check_reconstruction_positivity(rng):
    for tj in (1, 4, 10, 20):
        spec = cw.initial_spectrum(tj)
        alpha = fitted_step(tj)
        for n in (1, tj**2, 5 * tj**2):
            walked = cw.walk_evolve(spec, alpha, n)
            require(f"2j={tj}, n={n}", "dip of the reconstruction below 0",
                    -walked.min_reconstructed(), "POSITIVITY_ALLOWANCE")


def _check_coherent_populations(rng):
    for _ in range(25):
        tj = int(rng.integers(1, 21))
        theta = float(rng.uniform(0.0, np.pi))
        p = am.coherent_columns(tj, [theta])[:, 0]
        where = f"2j={tj}, theta={theta!r}"
        require(where, "|sum of populations - 1|", abs(p.sum() - 1.0), "STRUCTURE_TOL")
        mirrored = am.coherent_columns(tj, [np.pi - theta])[:, 0]
        require(where, "asymmetry under theta -> pi - theta, m -> -m",
                np.max(np.abs(p - mirrored[::-1])), "STRUCTURE_TOL")


def _check_decay_law(rng):
    for tj in (1, 7, 20):
        qd.evolve(tj, 200)  # checks every step against MAP_TOL


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
        require(f"{rows} x {2 * rows} random matrix", "recovery residual",
                result.residual, "NNLS_RECOVERY_TOL")
    # nearly collinear coherent columns: bounded by their conditioning
    for _ in range(5):
        tj = int(rng.integers(2, 11))
        n_nodes = 4 * (tj + 1)
        _, columns = ca.build_grid(tj, n_nodes)
        w_true = np.zeros(n_nodes)
        support = rng.choice(n_nodes, size=3, replace=False)
        w_true[support] = rng.random(3) + 0.1
        w_true /= w_true.sum()
        result = ca.nnls_solve(columns, columns @ w_true)
        require(f"2j={tj}, {n_nodes} nodes", "mixture residual",
                result.residual, "NNLS_MIXTURE_TOL")


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
    """Run every structural check; returns (passed, failed) counts.  Check i
    draws from ``default_rng([seed, i])``, so ``seed`` is an integer >= 0."""
    seed = _check_count("seed", seed)
    stream = stream if stream is not None else sys.stdout
    passed = failed = 0
    for name, check in CHECKS:
        rng = np.random.default_rng([seed, passed + failed])
        try:
            check(rng)
        except DrfsimError as exc:
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
