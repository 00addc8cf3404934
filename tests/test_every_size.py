"""Every public function that takes a frame size, at a large size and past memory.

Each callable in ``drfsim.__all__`` with a ``j`` or ``twice_j`` parameter,
and each :class:`FrameState` constructor, is called at two sizes:

* at 2j = 10**5, or at the smaller size :data:`SMALLER` gives with its
  reason, it must return within ``LARGE_SECONDS`` or raise a
  :class:`DomainError` or a ``MemoryError``;
* at 2j = 10**12, where one table of 2j + 1 doubles is 8 TB, it must return
  or raise one of those two errors within ``PAST_MEMORY_SECONDS``: a
  function that needs such a table fails on its first allocation, before it
  has grown anything.

No size in between is used: a request below the host's memory plus swap
may be granted and then filled.  CI runs the 2j = 10**12 cases once more
under ``ulimit -v``, so that a table which is granted lazily still fails
with ``MemoryError`` instead of filling the runner.
"""

import inspect
import time

import pytest

import drfsim
from drfsim import DomainError, FrameState

PAST_MEMORY = 10**12
LARGE = 10**5
LARGE_SECONDS = 2.0  # each call takes under 0.1 s on a 2-core Xeon
PAST_MEMORY_SECONDS = 1.0  # each call takes under 1 ms there

# The other arguments of each call, as a function of 2j: short runs, one
# angle, the fewest nodes a grid accepts.
CALLS = {
    "SpinLabel": lambda tj: drfsim.SpinLabel(tj),
    "cg_coefficient": lambda tj: drfsim.cg_coefficient(tj, tj, 0, +1),
    "projector_element": lambda tj: drfsim.projector_element(tj, +1, 0, 0, tj, tj),
    "coherent_populations": lambda tj: drfsim.coherent_populations(tj, 0.5),
    "coherent_columns": lambda tj: drfsim.coherent_columns(tj, [0.5, 1.0]),
    "initial_spectrum": lambda tj: drfsim.initial_spectrum(tj),
    "classical_fidelity_series":
        lambda tj: drfsim.classical_fidelity_series(tj, drfsim.fitted_step(tj), 10),
    "angular_variance": lambda tj: drfsim.angular_variance(tj),
    "build_grid": lambda tj: drfsim.build_grid(tj, tj + 1),
    "convexity_test": lambda tj: drfsim.convexity_test(tj, 1, tj + 1),
    "convexity_series": lambda tj: drfsim.convexity_series(tj, 1, tj + 1),
    "build_kraus": lambda tj: drfsim.build_kraus(tj),
    "evolve": lambda tj: drfsim.evolve(tj, 10),
    "sample_trajectory": lambda tj: drfsim.sample_trajectory(tj, 10, seed=1),
    "sample_fidelity_batch": lambda tj: drfsim.sample_fidelity_batch(tj, 10, 100, seed=1),
    "transfer_rates": lambda tj: drfsim.transfer_rates(tj),
    "multipole_spectrum": lambda tj: drfsim.multipole_spectrum(tj),
    "closed_form_fidelity": lambda tj: drfsim.closed_form_fidelity(tj, 10),
    "conditional_fidelity_table": lambda tj: drfsim.conditional_fidelity_table(tj, 10),
    "fitted_step": lambda tj: drfsim.fitted_step(tj),
    "half_life": lambda tj: drfsim.half_life(tj),
    "default_n_max": lambda tj: drfsim.default_n_max(tj),
    "FrameState.stretched": lambda tj: FrameState.stretched(tj),
    "FrameState.maximally_mixed": lambda tj: FrameState.maximally_mixed(tj),
}

# The exact C(2j, k) are held one at a time, O(2j) memory, but made in
# O((2j)^2) big-int work: about 1 s at 10^5 on that Xeon, half of
# LARGE_SECONDS, too near the bound to time without flaking.
_BINOMIALS = 10**4
_GRID = 200  # (2j + 1)^2 doubles or more: 80 GB at 10^5, a request a host may grant
SMALLER = {
    "coherent_populations": _BINOMIALS,
    "coherent_columns": _BINOMIALS,
    "build_grid": _GRID,
    "convexity_test": _GRID,
    "convexity_series": _GRID,
    "build_kraus": 10**4,  # exact Fraction coefficients, about 10 us an entry: 1 s at 10^5
}


def sized_callables():
    """Names of the public callables with a ``j`` or ``twice_j`` parameter,
    and of the FrameState constructors."""
    names = {f"FrameState.{name}" for name, attr in vars(FrameState).items()
             if isinstance(attr, classmethod)}
    for name in drfsim.__all__:
        try:
            parameters = inspect.signature(getattr(drfsim, name)).parameters
        except (TypeError, ValueError):  # not callable, or an exception class
            continue
        if {"j", "twice_j"} & parameters.keys():
            names.add(name)
    return names


def timed(call, twice_j):
    """Seconds ``call(twice_j)`` took to return or to raise an accepted error."""
    start = time.perf_counter()
    try:
        call(twice_j)
    except (DomainError, MemoryError):
        pass
    return time.perf_counter() - start


def test_every_sized_callable_has_a_case():
    assert sized_callables() == CALLS.keys()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_large_size_returns_in_time(name):
    twice_j = SMALLER.get(name, LARGE)
    assert timed(CALLS[name], twice_j) < LARGE_SECONDS, f"{name} at 2j={twice_j}"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_past_memory_returns_or_raises_at_once(name):
    assert timed(CALLS[name], PAST_MEMORY) < PAST_MEMORY_SECONDS, f"{name} at 2j={PAST_MEMORY}"


def test_past_memory_kraus_fails_on_its_first_column():
    # each coupling column is allocated before it is filled, so the Fraction
    # arithmetic never runs on a column that cannot be held
    start = time.perf_counter()
    with pytest.raises(MemoryError):
        drfsim.build_kraus(PAST_MEMORY)
    assert time.perf_counter() - start < PAST_MEMORY_SECONDS
