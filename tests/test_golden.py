"""The behaviour to keep: every golden CSV and the ``--selftest`` output,
rebuilt in-process and compared with ``tests/golden/manifest.json``.

Where Python, numpy, the BLAS and the machine match the manifest's, each
output must have the recorded sha256.  Elsewhere the bytes may move in the
last digits, so the stored rows are compared as values within
``ORACLE_TOL``: the weaker check, which says so when it fails.  To
regenerate: ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import hashlib
import json
import warnings

import pytest

from drfsim.tolerances import ORACLE_TOL
from golden import regenerate

MANIFEST = json.loads(regenerate.MANIFEST.read_text(encoding="utf-8"))
SAME_ENVIRONMENT = MANIFEST["environment"] == regenerate.environment()


@pytest.fixture(scope="module")
def outputs():
    return regenerate.build_outputs()


def test_the_golden_set_is_the_manifest(outputs):
    assert sorted(outputs) == sorted(MANIFEST["outputs"])


def _cells_agree(stored: str, got: str) -> bool:
    try:
        want, have = float(stored), float(got)
    except ValueError:  # header, selftest line or empty cell
        return stored == got
    return abs(have - want) <= ORACLE_TOL * max(1.0, abs(want))


def _moved_rows(entry, lines):
    return [(i, row, lines[i]) for i, row in entry["sampled"]
            if len(row.split(",")) != len(lines[i].split(","))
            or not all(map(_cells_agree, row.split(","), lines[i].split(",")))]


@pytest.mark.parametrize("name", sorted(MANIFEST["outputs"]))
def test_output_is_unchanged(outputs, name):
    entry, data = MANIFEST["outputs"][name], outputs[name]
    lines = data.decode().splitlines()
    if SAME_ENVIRONMENT:
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            moved = [(i, row, lines[i] if i < len(lines) else None)
                     for i, row in entry["sampled"] if i >= len(lines) or lines[i] != row]
            pytest.fail(f"{name}: sha256 differs from the manifest; {len(lines)} lines "
                        f"(recorded {entry['lines']}); stored rows that moved "
                        f"(line, recorded, now): {moved[:3]}")
        return
    where = (f"{name}: environment {regenerate.environment()} differs from the "
             f"manifest's {MANIFEST['environment']}, so only the stored rows are "
             f"compared, as values within ORACLE_TOL (the weaker check)")
    assert len(lines) == entry["lines"], f"{where}: {len(lines)} lines, recorded {entry['lines']}"
    moved = _moved_rows(entry, lines)
    assert not moved, f"{where}: rows moved (line, recorded, now): {moved[:3]}"
    warnings.warn(where, UserWarning)


@pytest.mark.parametrize("stored,got,agree", [
    ("1.0000000000000000e+00", "1.0000000000000002e+00", True),
    ("1.0000000000000000e+00", "1.0000000010000000e+00", False),
    ("2.5000000000000000e+04", "2.5000000000001000e+04", True),
    ("", "", True),
    ("", "0", False),
    ("ok   kraus completeness", "FAIL kraus completeness", False),
])
def test_weaker_check_reads_cells_as_values(stored, got, agree):
    assert _cells_agree(stored, got) is agree


def test_weaker_check_names_moved_rows():
    entry = {"sampled": [[0, "n,x"], [1, "0,1.0000000000000000e+00"]]}
    assert _moved_rows(entry, ["n,x", "0,1.0000000000000000e+00"]) == []
    assert _moved_rows(entry, ["n,x", "0,2.0000000000000000e+00"]) == [
        (1, "0,1.0000000000000000e+00", "0,2.0000000000000000e+00")]
    assert _moved_rows(entry, ["n,x", "0,1.0000000000000000e+00,"]) != []
