"""Every command at its own defaults across frame sizes 2j = 1 ... 1000.

Marked ``slow`` and left out of the default run (see ``addopts`` in
pyproject.toml); run with ``pytest -m slow``.  The largest sizes take tens
of seconds each and write CSVs of ~10^6 rows.
"""

import pytest

from drfsim import SpinLabel
from drfsim.cli import HEADERS, default_n_max, main

SIZES = (1, 2, 20, 200, 1000)
COMMANDS = ("quantum-evolve", "classical-walk", "compare", "trajectories",
            "coherent-test", "scaling")


def expected_rows(command, twice_j):
    if command == "trajectories":
        return 1000  # default --samples
    if command == "coherent-test":
        return 9  # default n_max of 8
    if command == "scaling":
        return 1
    return default_n_max(SpinLabel(twice_j)) + 1


def sweep_cases():
    for command in COMMANDS:
        for twice_j in SIZES:
            yield pytest.param(command, twice_j, marks=pytest.mark.slow,
                               id=f"{command}-2j{twice_j}")


@pytest.mark.parametrize("command,twice_j", sweep_cases())
def test_command_at_defaults(tmp_path, command, twice_j):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--twice-j", str(twice_j), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == ",".join(HEADERS[command])
        rows = sum(1 for _ in fh)
    out.unlink()
    assert rows == expected_rows(command, twice_j)
