"""The package imports numpy and the standard library only at run time, and its
modules import one another only across the stated boundaries."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import drfsim

PACKAGE = Path(drfsim.__file__).parent


def imported_roots(path):
    """(line, top-level module) of every absolute import in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def package_imports(path):
    """(line, module, name) of every relative import in a source file; the
    name is None for a module imported whole (``from . import errors``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, node.module, alias.name) if node.module
                      else (node.lineno, alias.name, None) for alias in node.names]
    return sorted(found, key=lambda entry: entry[:2])


def test_source_files_import_numpy_and_the_standard_library_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "classical_walk.py" in sources
    allowed = sys.stdlib_module_names | {"numpy"}
    stray = {
        path.name: found
        for path in sources
        if (found := [(line, root) for line, root in imported_roots(path)
                      if root not in allowed])
    }
    assert stray == {}


def test_scan_sees_every_import_form(tmp_path):
    # plain, dotted, aliased and from-imports are found; relative ones are not
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import scipy\n"
        "import os, scipy.special as sp\n"
        "from scipy.special import xlogy\n"
        "from . import errors\n"
        "def f():\n"
        "    from scipy import linalg\n"
        "    from .quantum_drf import _span, evolve\n"
    )
    assert imported_roots(sample) == [
        (1, "scipy"), (2, "os"), (2, "scipy"), (3, "scipy"), (6, "scipy"),
    ]
    assert package_imports(sample) == [
        (4, "errors", None), (7, "quantum_drf", "_span"), (7, "quantum_drf", "evolve"),
    ]


def test_spectrum_imports_only_errors_tolerances_and_angular_momentum():
    # the channel's eigenvalues and closed forms depend on no map, walk or CLI code
    modules = {module for _, module, _ in package_imports(PACKAGE / "spectrum.py")}
    assert modules <= {"errors", "tolerances", "angular_momentum"}


def test_no_module_imports_a_private_name_of_quantum_drf():
    private = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := [(line, name) for line, module, name in package_imports(path)
                      if module == "quantum_drf" and name and name.startswith("_")])
    }
    assert private == {}


def named_identifiers(path):
    """Every identifier a source file names: a name, an attribute or an imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


@pytest.mark.parametrize("line", ["from .angular_momentum import SpinLabel as S",
                                  "x = am.SpinLabel(2)", "def f(j: SpinLabel): pass"])
def test_scan_sees_every_way_of_naming(tmp_path, line):
    sample = tmp_path / "sample.py"
    sample.write_text(line + "\n")
    assert "SpinLabel" in named_identifiers(sample)


def test_only_angular_momentum_names_spin_label():
    # inside the package a frame size is the int 2j; SpinLabel is only an
    # accepted input, which angular_momentum's _check_frame unwraps
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "angular_momentum.py" and "SpinLabel" in named_identifiers(path)]
    assert naming == []


# (import, module prefix that stays unloaded after it), one subprocess for all
UNLOADED = [
    # the package runs on numpy alone: no scipy module, scipy.stats and
    # scipy.special included, is loaded by importing it or its CLI
    ("drfsim", "scipy"),
    ("drfsim.cli", "scipy"),
    # classical_walk evaluates Legendre polynomials by its own recurrence
    ("drfsim.cli", "numpy.polynomial"),
    # ring_average imports concurrent.futures (which loads logging) only
    # when it runs, so a CLI run does not pay for them
    ("drfsim.cli", "concurrent.futures"),
    ("drfsim.cli", "logging"),
]


@pytest.fixture(scope="module")
def still_loaded():
    """The loaded modules that start with each row's prefix, from one run."""
    script = ["import sys"]
    for module, prefix in UNLOADED:
        script += [f"import {module}",
                   f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"]
    proc = subprocess.run([sys.executable, "-c", "\n".join(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(UNLOADED, proc.stdout.splitlines()))


@pytest.mark.parametrize("row", UNLOADED, ids="-".join)
def test_imports_leave_the_table_unloaded(still_loaded, row):
    assert still_loaded[row] == "[]"
