"""Memory of the large outputs, counted by tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a call
is a deterministic count of the bytes it held at once.  Every full-length
array the coherent grid and the fidelity series allocate should be one they
return: the peaks are bounded by the returned arrays plus one working array
(for the grid, a quarter of it).  The in-place steps must also leave every
value as the whole-array expressions gave it.  The NNLS fit checks its
matrix without a mask of the matrix's size, and the trajectory batch holds
its counts and fidelities and no row of uniforms beside them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from drfsim import (
    SpinLabel,
    build_grid,
    classical_fidelity_series,
    closed_form_fidelity,
    coherent_columns,
    default_n_max,
    evolve,
    fitted_step,
    initial_spectrum,
    multipole_spectrum,
    nnls_solve,
    sample_fidelity_batch,
)
from drfsim import cli
from drfsim.cli import COMMANDS, RunConfig

J = SpinLabel(200)
N_MAX = default_n_max(J)
SERIES_BYTES = (N_MAX + 1) * 8  # one float64 array over steps 0 ... n_max


def traced_peak(call):
    """Result of ``call()`` and the peak bytes traced while it ran.  A first,
    untraced call fills the caches (spectra, log-binomials, digit tables)."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coherent_grid_is_built_in_its_output():
    thetas = np.arccos(np.linspace(1.0, -1.0, 8 * J.dim))
    columns, peak = traced_peak(lambda: coherent_columns(J, thetas))
    assert columns.shape == (J.dim, 8 * J.dim)
    assert peak <= 1.25 * columns.nbytes


def test_nnls_finiteness_check_holds_no_matrix_sized_mask():
    # a one-column target keeps the free set, and so the least-squares
    # copies, small: what is left is below a bool mask the size of A
    _, columns = build_grid(J, 8 * J.dim)
    _, peak = traced_peak(lambda: nnls_solve(columns, columns[:, 5]))
    assert peak < columns.size


def test_batch_holds_its_counts_and_fidelities_only():
    # 10^6 samples: the uniforms are freed once searched and the counts are
    # shifted in place, so the peak is the counts and the three rows the
    # fidelities take; the count CDF at 2j = 4, n = 20 is 21 entries
    n_samples = 10**6
    row = n_samples * 8
    (_, counts), peak = traced_peak(
        lambda: sample_fidelity_batch(SpinLabel(4), 20, n_samples, seed=2024))
    assert counts.base is None
    assert peak < 4.5 * row


@pytest.mark.parametrize("build", [
    lambda: evolve(J, N_MAX),
    lambda: classical_fidelity_series(J, fitted_step(J), N_MAX),
], ids=["evolve", "classical_fidelity_series"])
def test_series_hold_one_working_array(build):
    # the returned pair, the error it is checked by, and one working array
    (fidelity, closed), peak = traced_peak(build)
    assert len(fidelity) == len(closed) == N_MAX + 1
    assert peak <= 4 * SERIES_BYTES


@pytest.mark.parametrize("command", ["quantum-evolve", "classical-walk", "compare"])
def test_column_builds_hold_one_working_array(command):
    config = RunConfig(command, [J.twice_j])
    columns, peak = traced_peak(lambda: COMMANDS[command].build(config, J))
    assert all(len(c) == N_MAX + 1 for c in columns)
    assert peak <= (len(columns) + 1) * SERIES_BYTES


def test_series_equal_the_whole_array_expressions():
    steps = np.arange(N_MAX + 1)
    spectrum = multipole_spectrum(J)
    decay = np.exp(steps * np.log1p(spectrum.averaged[1]))
    assert np.array_equal(closed_form_fidelity(J, steps), 0.5 + spectrum.amplitude * decay)

    alpha = fitted_step(J)
    c0, c1 = initial_spectrum(J).coeffs[:2]
    gains = math.cos(alpha) ** steps
    walk, walk_closed = classical_fidelity_series(J, alpha, N_MAX)
    assert np.array_equal(walk, 0.5 * (c0 + c1 * gains / 3.0))
    assert np.array_equal(walk_closed, 0.5 + spectrum.amplitude * gains)

    quantum, closed = evolve(J, N_MAX)
    columns = cli._columns_compare(RunConfig("compare", [J.twice_j]), J)
    assert np.array_equal(columns[4], np.abs(walk - quantum))
    assert np.array_equal(columns[5], np.abs(quantum - closed))
