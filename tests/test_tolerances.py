"""Every small numerical tolerance of the package lives in ``tolerances.py``."""

import ast
from pathlib import Path

import drfsim

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
