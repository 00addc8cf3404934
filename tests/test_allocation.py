"""Memory of the large outputs, counted by tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a call
is a deterministic count of the bytes it held at once.  Every full-length
array the coherent grid and the fidelity series allocate should be one they
return: the peaks are bounded by the returned arrays plus one working array
(for the grid, a quarter of it).  The in-place steps must also leave every
value as the whole-array expressions gave it.  The NNLS fit checks its
matrix without a mask of the matrix's size.
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
    evolve,
    fitted_step,
    initial_spectrum,
    multipole_spectrum,
    nnls_solve,
)
from drfsim import cli
from drfsim.cli import COMMANDS, RunConfig, default_n_max

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
    grid = build_grid(J, 8 * J.dim)
    _, peak = traced_peak(lambda: nnls_solve(grid.columns, grid.columns[:, 5]))
    assert peak < grid.columns.size


@pytest.mark.parametrize("build", [
    lambda: evolve(J, N_MAX),
    lambda: classical_fidelity_series(J, fitted_step(J), N_MAX),
], ids=["evolve", "classical_fidelity_series"])
def test_series_hold_one_working_array(build):
    series, peak = traced_peak(build)
    returned = (series.steps, series.fidelity, series.closed_form)
    assert all(len(a) == N_MAX + 1 for a in returned)
    assert peak <= (len(returned) + 1) * SERIES_BYTES


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
    walk = classical_fidelity_series(J, alpha, N_MAX)
    assert np.array_equal(walk.fidelity, 0.5 * (c0 + c1 * gains / 3.0))
    assert np.array_equal(walk.closed_form, 0.5 + spectrum.amplitude * gains)

    quantum = evolve(J, N_MAX)
    columns = cli._columns_compare(RunConfig("compare", [J.twice_j]), J)
    assert np.array_equal(columns[4], np.abs(walk.fidelity - quantum.fidelity))
    assert np.array_equal(columns[5], np.abs(quantum.fidelity - quantum.closed_form))
