"""Every small numerical tolerance of the package lives in ``tolerances.py``,
and every check against one goes through ``tolerances.require``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import drfsim
from drfsim import tolerances
from drfsim.errors import DomainError, InternalConsistencyError

PACKAGE = Path(drfsim.__file__).parent
SMALL = 1e-4  # literals below this size are tolerances, not data


def small_float_literals(path):
    """(line, value) of every float constant with 0 < |value| < SMALL."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < SMALL
    )


def test_small_float_literals_only_in_tolerances_module():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerances.py" in sources
    stray = {
        path.name: found
        for path in sources
        if path.name != "tolerances.py" and (found := small_float_literals(path))
    }
    assert stray == {}


def test_scan_sees_literals(tmp_path):
    # the scan finds signed, exponent and plain forms, and skips 0 and 1e-4
    sample = tmp_path / "sample.py"
    sample.write_text("a = -1e-10\nb = 0.00002\nc = 0.0\nd = 1e-4\ne = 3\n")
    assert small_float_literals(sample) == [(1, 1e-10), (2, 2e-05)]


TOLERANCES = {name for name in vars(tolerances) if name.isupper()}


def bypassing_checks(path):
    """(line, kind) of every ``assert`` statement, and of every f-string
    that formats a tolerance constant of ``tolerances.py``: kind "cap" when
    it is an argument of a ``ConvergenceError``, "f-string" otherwise."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    capped = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "ConvergenceError"
              for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.FormattedValue) and any(
                isinstance(name, ast.Name) and name.id in TOLERANCES
                for name in ast.walk(node.value)):
            found.append((node.lineno, "cap" if id(node) in capped else "f-string"))
    return sorted(found)


def test_every_tolerance_check_goes_through_require():
    # a check written with assert vanishes under python -O, and one that
    # formats its own message has its own comparison and sentence; the cap
    # message of nnls_solve's ConvergenceError, which carries the best
    # iterate, is the one allowed exception
    kinds = {
        path.name: [kind for _, kind in found]
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py" and (found := bypassing_checks(path))
    }
    assert kinds == {"coherent_analysis.py": ["cap"]}


def test_bypass_scan_sees_asserts_and_formatted_tolerances(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("assert x\nm = f'{STRUCTURE_TOL:g}'\nn = f'{abs(ORACLE_TOL)}'\n"
                      "o = f'{x} STRUCTURE_TOL'\n"
                      "raise ConvergenceError(f'{KKT_TOL}', result=None)\n")
    assert bypassing_checks(sample) == [(1, "assert"), (2, "f-string"),
                                        (3, "f-string"), (5, "cap")]


@pytest.mark.parametrize("observed,name,passes", [
    (1e-12, "STRUCTURE_TOL", True), (2e-12, "STRUCTURE_TOL", False),
    (-1e-10, "EIGENVALUE_FLOOR", True), (-2e-10, "EIGENVALUE_FLOOR", False),
    (math.nan, "STRUCTURE_TOL", False), (math.nan, "EIGENVALUE_FLOOR", False),
    (np.float64(0.5), "ORACLE_TOL", False),
])
def test_require_bounds(observed, name, passes):
    if passes:
        assert tolerances.require("here", "value", observed, name) is None
        return
    relation = "is below" if name.endswith("_FLOOR") else "exceeds"
    expected = (f"here: value {float(observed)!r} {relation} {name} = "
                f"{getattr(tolerances, name):g}")
    with pytest.raises(InternalConsistencyError) as excinfo:
        tolerances.require("here", "value", observed, name)
    assert str(excinfo.value) == expected


def test_require_keeps_the_error_class_and_refuses_unknown_names():
    with pytest.raises(DomainError, match=r"^x: y 1\.0 exceeds KKT_TOL = 1e-13$"):
        tolerances.require("x", "y", 1.0, "KKT_TOL", DomainError)
    with pytest.raises(KeyError):
        tolerances.require("x", "y", 0.0, "STRUCTURE_TOLL")
