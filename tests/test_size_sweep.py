"""Every command at its own defaults across frame sizes 2j = 1 ... 1000.

Marked ``slow`` and left out of the default run (see ``addopts`` in
pyproject.toml); run with ``pytest -m slow``.  The largest sizes take tens
of seconds each and write CSVs of ~10^6 rows.  Each CSV is compared, a
chunk at a time, with ``%`` formatting of the same columns (``%d`` and
``%.16e`` per cell), so the vectorised writer is checked on every real
output.

Each run's tracemalloc peak (numpy reports its buffers there) is recorded
as the test property ``tracemalloc_peak_bytes`` (``--junitxml`` keeps it).
At 2j = 1000, where the columns dominate, a fidelity series command may
peak at (columns + 2) x rows x 8 bytes, and ``coherent-test`` at 1.25 times
its coherent grid of (2j+1) x 8(2j+1) doubles.
"""

import tracemalloc

import pytest

from drfsim import SpinLabel, default_n_max
from drfsim import cli
from drfsim.cli import HEADERS, main

from brute_force import csv_reference

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


def peak_bound(command, twice_j, columns):
    """Most bytes the run may trace at once, or None where fixed costs
    rather than the output set the peak."""
    if twice_j < 1000:
        return None
    if command in ("quantum-evolve", "classical-walk", "compare"):
        return (len(columns) + 2) * len(columns[0]) * 8
    if command == "coherent-test":
        return 1.25 * (twice_j + 1) * 8 * (twice_j + 1) * 8
    return None


@pytest.mark.parametrize("command,twice_j", sweep_cases())
def test_command_at_defaults(tmp_path, monkeypatch, record_property, command, twice_j):
    written = []
    write_csv = cli._write_csv

    def recording_write_csv(path, header, columns):
        written.append(columns)
        return write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
    out = tmp_path / f"{command}.csv"
    tracemalloc.start()
    try:
        assert main([command, "--twice-j", str(twice_j), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record_property("tracemalloc_peak_bytes", peak)
    (columns,) = written
    bound = peak_bound(command, twice_j, columns)
    assert bound is None or peak <= bound, f"traced peak {peak} bytes > {bound}"
    rows = len(columns[0])
    step = 4096
    with open(out, "rb") as fh:
        assert fh.readline() == (",".join(HEADERS[command]) + "\n").encode()
        for start in range(0, rows, step):
            expected = csv_reference(None, [c[start:start + step] for c in columns])
            assert fh.read(len(expected)) == expected, f"rows {start} ..."
        assert fh.read() == b""
    out.unlink()
    assert rows == expected_rows(command, twice_j)
