import functools
import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from drfsim import ring_average

import acceptance_report


@pytest.fixture(scope="session")
def ring_law_error():
    """(n_grid, alpha, l) -> worst |ring_average of P_l(cos theta) -
    P_l(cos alpha) P_l(cos theta)| on n_grid uniform nodes; each call is made
    once per session, so criterion 4 and the ring table share their calls."""
    @functools.cache
    def worst(n_grid, alpha, ell):
        thetas = np.linspace(0.0, math.pi, n_grid)
        values = eval_legendre(ell, np.cos(thetas))
        averaged = ring_average(thetas, values, alpha)
        return np.max(np.abs(averaged - eval_legendre(ell, math.cos(alpha)) * values))
    return worst


def pytest_terminal_summary(terminalreporter):
    if not acceptance_report.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed in acceptance_report.RESULTS:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {label}")
