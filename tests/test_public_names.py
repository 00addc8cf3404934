"""Names that other code reaches by string: the package's and each module's
``__all__`` and the functions the benchmark's tracer wraps.  A rename or
removal in the library fails here rather than in a benchmark run."""

import importlib
import inspect
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import drfsim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # run from its source, so no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return SimpleNamespace(**namespace)


def _traced_functions():
    tracing = _tracing()
    return sorted(
        f"{module}.{name}"
        for table in (tracing.SPANS, tracing.COUNTERS)
        for module, names in table.items()
        for name in names
    )


def _function(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"drfsim.{module}"), name)


@pytest.mark.parametrize("name", drfsim.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(drfsim, name)


def _module_exports():
    modules = (importlib.import_module(f"drfsim.{info.name}")
               for info in pkgutil.iter_modules(drfsim.__path__))
    return [f"{module.__name__}.{name}"
            for module in modules for name in getattr(module, "__all__", ())]


@pytest.mark.parametrize("dotted", _module_exports())
def test_every_module_export_resolves(dotted):
    module, name = dotted.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", ["angular_momentum", "quantum_drf", "classical_walk",
                                    "coherent_analysis", "spectrum"])
def test_library_modules_export_through_the_package(module):
    exported = importlib.import_module(f"drfsim.{module}").__all__
    assert sorted(set(exported) - set(drfsim.__all__)) == []


def test_every_public_name_has_a_contract_row_or_a_stated_exception():
    from test_contract import EXCEPTIONS, ROWS
    rows = {row.split(":")[0] for row, _, _ in ROWS}
    assert rows.isdisjoint(EXCEPTIONS)
    assert sorted(rows | set(EXCEPTIONS)) == sorted(drfsim.__all__)


@pytest.mark.parametrize("dotted", _traced_functions())
def test_every_traced_function_exists(dotted):
    assert callable(_function(dotted))


@pytest.mark.parametrize("dotted", sorted(_tracing().WORK))
def test_work_counts_read_real_arguments(dotted):
    # a WORK lambda reads the bound arguments by name: every string it
    # holds must be a parameter of the function it counts for
    _, count = _tracing().WORK[dotted]
    read = {c for c in count.__code__.co_consts if isinstance(c, str)}
    assert read
    assert read <= set(inspect.signature(_function(dotted)).parameters)
