"""The package imports numpy and the standard library only at run time."""

import ast
import subprocess
import sys
from pathlib import Path

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
    )
    assert imported_roots(sample) == [
        (1, "scipy"), (2, "os"), (2, "scipy"), (3, "scipy"), (6, "scipy"),
    ]


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # classical_walk evaluates Legendre polynomials by its own recurrence,
    # so importing the CLI loads no part of numpy.polynomial
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import drfsim.cli\n"
         "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_the_thread_pool_unloaded():
    # ring_average imports concurrent.futures (which loads logging) only
    # when it runs, so a CLI run does not pay for them
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import drfsim.cli\n"
         "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
