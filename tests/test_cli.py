"""CSV contracts, reproducibility, exit codes, and the selftest flag."""

import argparse
import csv
import dataclasses
import decimal
import functools
import io
import json
import math
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drfsim import SpinLabel, closed_form_fidelity, default_n_max, half_life
from drfsim import cli
from drfsim.cli import HEADERS, RunConfig, main
from drfsim.errors import DomainError
from drfsim.tolerances import CSV_FAST_MIN

from brute_force import csv_reference

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                  -1e-300, 1e300, -1e300, 1.7976931348623157e308, math.nan,
                  math.inf, -math.inf, 0.1, 1 / 3]


def _write_with_chunks(path, header, columns, chunk):
    original = cli._CSV_CHUNK_ROWS
    cli._CSV_CHUNK_ROWS = chunk
    try:
        with open(path, "wb") as fh:
            cli._write_csv(fh, header, columns)
    finally:
        cli._CSV_CHUNK_ROWS = original
    return path.read_bytes()


def _eighteen_digit_dyadics():
    """Dyadic rationals whose exact decimal expansion has 18 significant
    digits: the 17-digit rounding of each is an exact tie."""
    found = []
    for e in range(20, 64):
        for m in range(1, 400, 2):
            x = m * 2.0**-e
            digits = Decimal(x).normalize().as_tuple().digits
            if len(digits) == 18:
                found.append(x)
    return found


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-99, 16)]
BOUNDARY_FLOATS = (
    [2.0**-25, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
     CSV_FAST_MIN, cli._FLOAT_MAX]
    + [math.nextafter(b, d) for b in (CSV_FAST_MIN, cli._FLOAT_MAX)
       for d in (0.0, math.inf)]
    + [math.nextafter(p, d) for p in POWERS_OF_TEN for d in (0.0, math.inf)]
    + POWERS_OF_TEN
)


class TestCsvWriter:
    @settings(max_examples=60, deadline=None)
    @given(floats=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                           | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=300),
           ints=st.lists(st.integers(-2**62, 2**62), min_size=300, max_size=300),
           chunk=st.sampled_from([1, 7, 4096]))
    @example(floats=SPECIAL_FLOATS, ints=list(range(-3, 297)), chunk=4)
    def test_bytes_match_per_cell_formatting(self, floats, ints, chunk):
        ints = ints[: len(floats)]
        columns = [np.array(ints, dtype=np.int64), np.array(floats),
                   np.array(floats[::-1])]
        header = ["n", "x", "y"]
        with tempfile.TemporaryDirectory() as tmp:
            got = _write_with_chunks(Path(tmp) / "t.csv", header, columns, chunk)
            assert got == csv_reference(header, columns)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    @pytest.mark.parametrize("name,values", [
        ("ties", [2.0**-25] + _eighteen_digit_dyadics()),
        ("boundaries", BOUNDARY_FLOATS),
    ])
    def test_ties_and_boundaries(self, tmp_path, name, values, chunk):
        # 2**-25 = 2.98023223876953125e-08 rounds half to even at 17 digits;
        # next to each power of ten and each bound of the fast domain the
        # exponent or the carry may change
        x = np.array(values)
        columns = [np.arange(len(x)), x, x[::-1], np.zeros(len(x))]
        header = ["n", "x", "y", "z"]
        assert (_write_with_chunks(tmp_path / "t.csv", header, columns, chunk)
                == csv_reference(header, columns))

    @pytest.mark.parametrize("shift", [-1e-13, 1e-13])
    def test_range_checks_catch_an_exponent_one_off(self, tmp_path, monkeypatch, shift):
        # a log10 a little off puts floor(log10 x) one off next to each power
        # of ten: the significand then leaves [10**16, 10**17), at the top
        # through a carry (1e-79 is 1.1e-18 below 10**-79 relative)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        x = np.array(BOUNDARY_FLOATS)
        columns = [np.arange(len(x)), x]
        assert (_write_with_chunks(tmp_path / "t.csv", ["n", "x"], columns, 4096)
                == csv_reference(["n", "x"], columns))

    def test_carry_and_ties_read_exactly(self, tmp_path):
        x = np.array([math.nextafter(1.0, 0.0), 2.0**-25, 0.0])
        lines = _write_with_chunks(tmp_path / "t.csv", ["x"], [x], 4096).split()
        assert lines[1:] == [b"9.9999999999999989e-01", b"2.9802322387695312e-08",
                             b"0.0000000000000000e+00"]

    @pytest.mark.parametrize("chunk", [1, 5, 64, 4096])
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    @pytest.mark.parametrize("first_only", [False, True], ids=["middle", "first-only"])
    def test_middle_integer_column_of_mixed_widths(self, tmp_path, first_only, order,
                                                   chunk):
        # sorted: a few runs of equal width per chunk; shuffled: the width
        # changes from row to row; either way the pads must all be stripped.
        # With the integers only in the first column the rows are written in
        # runs of equal width; a cell outside [0, 10**8) sends its chunk to
        # the per-cell route on either layout
        edges = [0, 9, 10, 99, 100, 9999, 10**4, 10**7 - 1, 10**7,
                 10**8 - 1, 10**8, 10**9, 2**62, -1, -10**8]
        rng = np.random.default_rng(5)
        ints = np.concatenate([edges, rng.integers(0, 10**8, 300),
                               10 ** rng.integers(0, 8, 300)])
        if order == "sorted":
            ints.sort()
        else:
            rng.shuffle(ints)
        x = rng.random(len(ints))
        if first_only:
            columns, header = [ints, x, 1.0 - x], ["k", "x", "y"]
        else:
            columns = [np.arange(len(ints)), x, ints, 1.0 - x, ints[::-1]]
            header = ["n", "x", "k", "y", "m"]
        assert (_write_with_chunks(tmp_path / "t.csv", header, columns, chunk)
                == csv_reference(header, columns))

    def test_fast_domain_takes_the_vectorised_route(self):
        # above ~1e12 a double has few fractional bits and its 17-digit
        # rounding is often an exact tie, which the % route takes
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.random(4096), 10.0 ** rng.uniform(-99, 12, 4096),
                            [0.0, 1.0, CSV_FAST_MIN]])
        buf = np.empty((len(x), 22), dtype=np.uint8)
        ok = cli._float_cells(buf, 0, x)
        assert ok.mean() > 0.999
        assert ok[-3:].all()
        outside = np.array([-0.0, -1.0, math.nan, math.inf, cli._FLOAT_MAX,
                            math.nextafter(CSV_FAST_MIN, 0.0), 2.0**-25])
        buf = np.empty((len(outside), 22), dtype=np.uint8)
        assert not cli._float_cells(buf, 0, outside).any()

    def test_list_columns_keep_empty_cells(self, tmp_path):
        path = tmp_path / "scaling.csv"
        columns = [[20, 40], [1.5, 2.25], [None, 1.5]]
        with open(path, "wb") as fh:
            cli._write_csv(fh, ["twice_j", "half_life", "ratio"], columns)
        assert path.read_bytes() == csv_reference(
            ["twice_j", "half_life", "ratio"], columns)
        assert path.read_text().splitlines()[1].endswith(",")


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"scaling"}))
@pytest.mark.parametrize("twice_j", [1, 2, 7])
def test_command_writes_reference_csv(tmp_path, command, twice_j):
    out = tmp_path / "c.csv"
    argv = [command, "--twice-j", str(twice_j), "--out", str(out)]
    if command != "coherent-test":
        argv += ["--n-max", "300"]
    assert main(argv) == 0
    config = RunConfig(command, [twice_j], n_max=None if command == "coherent-test"
                       else 300)
    columns = cli.COMMANDS[command].build(config, twice_j)
    assert out.read_bytes() == csv_reference(HEADERS[command], columns)


def test_scaling_writes_reference_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["scaling", "--twice-j", "1,2,4,7,14", "--out", str(out)]) == 0
    sizes = [1, 2, 4, 7, 14]
    columns = cli.COMMANDS["scaling"].build(RunConfig("scaling", sizes), *sizes)
    assert out.read_bytes() == csv_reference(HEADERS["scaling"], columns)


class TestHalfLife:
    def test_half_spin_is_one_step(self):
        assert half_life(SpinLabel(1)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("twice_j", [50, 80, 120])
    def test_large_spin_asymptote(self, twice_j):
        # n_half -> ln2 (2j+1)^2 / 2 for large frames
        asymptote = math.log(2.0) * (twice_j + 1.0) ** 2 / 2.0
        assert half_life(SpinLabel(twice_j)) == pytest.approx(asymptote, rel=1e-2)

    def test_strictly_increasing(self):
        values = [half_life(SpinLabel(tj)) for tj in range(1, 40)]
        assert np.all(np.diff(values) > 0)

    def test_default_sweep_length(self):
        assert default_n_max(SpinLabel(1)) == 5


class TestCompareCommand:
    def test_schema_and_agreement(self, tmp_path):
        out = tmp_path / "compare.csv"
        code = main([
            "compare", "--twice-j", "10", "--n-max", "200", "--out", str(out)
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == HEADERS["compare"]
        assert len(rows) == 201
        diff_qc = np.array([float(r[4]) for r in rows])
        assert diff_qc.max() <= 1e-10

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "compare.csv"
        main(["compare", "--twice-j", "3", "--n-max", "5", "--out", str(out)])
        _, rows = read_csv(out)
        assert float(rows[0][2]) == closed_form_fidelity(SpinLabel(3), 0)

    def test_sweep_writes_one_file_per_size(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "compare", "--twice-j", "2,4", "--n-max", "10", "--out", str(out)
        ])
        assert code == 0
        for tj in (2, 4):
            header, rows = read_csv(tmp_path / f"sweep-2j{tj}.csv")
            assert header == HEADERS["compare"]
            assert len(rows) == 11

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["compare", "--twice-j", "6", "--n-max", "50",
                  "--seed", "7", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "compare.csv"
        main(["compare", "--twice-j", "4", "--n-max", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "compare.manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert manifest["config"]["twice_j"] == [4]
        assert manifest["seed"] == 1234
        assert manifest["columns"] == HEADERS["compare"]
        assert manifest["outputs"] == [str(out)]
        assert "timestamp_utc" in manifest and "wall_time_s" in manifest

    def test_manifest_report(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["compare", "--twice-j", "4,2", "--n-max", "30", "--out", str(out)])
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        report = manifest["report"]
        assert sorted(report) == ["2", "4"]
        for tj, entry in report.items():
            path = tmp_path / f"sweep-2j{tj}.csv"
            assert sorted(entry) == ["build_s", "csv_bytes", "csv_rows", "csv_s"]
            assert entry["csv_rows"] == 31
            assert entry["csv_bytes"] == path.stat().st_size
            assert 0 <= entry["build_s"] <= manifest["wall_time_s"]
            assert 0 <= entry["csv_s"] <= manifest["wall_time_s"]

    def test_repeated_size_is_written_once(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum-evolve", "--twice-j", "4,2,4", "--n-max", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "q.manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / f"q-2j{tj}.csv") for tj in (2, 4)]
        assert list(manifest["report"]) == ["2", "4"]

    def test_a_size_given_twice_is_one_table_at_out(self, tmp_path):
        # the distinct sizes decide between one table and a sweep
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        for sizes, out in (("3", once), ("3,3", twice)):
            assert main(["quantum-evolve", "--twice-j", sizes, "--n-max", "20",
                         "--out", str(out)]) == 0
        assert twice.read_bytes() == once.read_bytes()
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["once.csv", "twice.csv"]

    def test_scaling_drops_repeated_sizes(self, tmp_path):
        outs = [tmp_path / "sorted.csv", tmp_path / "repeated.csv"]
        for sizes, out in zip(("2,4", "4,2,2"), outs):
            assert main(["scaling", "--twice-j", sizes, "--out", str(out)]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_manifest_sizes_are_its_tables(self, tmp_path, command):
        # the manifest's sizes are those of its tables: distinct, ascending
        for sizes, want in (("3,3", [3]), ("4,2,2", [2, 4])):
            out = tmp_path / f"{sizes}.csv"
            steps = ["--n-max", "2"] if "n_max" in cli.COMMANDS[command].options else []
            assert main([command, "--twice-j", sizes, *steps, "--out", str(out)]) == 0
            manifest = json.loads(out.with_name(f"{sizes}.manifest.json").read_text())
            assert manifest["config"]["twice_j"] == want
            tables = [want] if command == "scaling" else [[tj] for tj in want]
            assert list(manifest["report"]) == [",".join(map(str, js)) for js in tables]

    def test_scaling_report_covers_its_sizes(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["scaling", "--twice-j", "20,10,40", "--out", str(out)])
        report = json.loads((tmp_path / "s.manifest.json").read_text())["report"]
        assert list(report) == ["10,20,40"]
        assert report["10,20,40"]["csv_rows"] == 3
        assert report["10,20,40"]["csv_bytes"] == out.stat().st_size


class TestOtherCommands:
    def test_quantum_evolve_single_row(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main([
            "quantum-evolve", "--twice-j", "1", "--n-max", "0", "--out", str(out)
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == HEADERS["quantum-evolve"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(0.75, abs=1e-15)

    def test_classical_walk_with_explicit_alpha(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main([
            "classical-walk", "--twice-j", "4", "--n-max", "6",
            "--alpha", str(math.pi / 2.0), "--out", str(out)
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[3][1]) == pytest.approx(0.5, abs=1e-12)

    def test_trajectories_deterministic(self, tmp_path):
        blobs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            code = main([
                "trajectories", "--twice-j", "4", "--n-max", "10",
                "--samples", "50", "--seed", "42", "--out", str(out)
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        header, rows = read_csv(tmp_path / "t1.csv")
        assert header == HEADERS["trajectories"]
        assert len(rows) == 50
        assert all(0 <= int(r[1]) <= 10 for r in rows)

    def test_trajectories_far_past_the_working_range(self, tmp_path):
        # 2j = 100000 at its default n_max of about 1.7e10 uses: one uniform
        # per sample, so 200 records take well under a second
        out = tmp_path / "t.csv"
        assert main(["trajectories", "--twice-j", "100000", "--samples", "200",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        n_max = default_n_max(SpinLabel(100000))
        assert header == HEADERS["trajectories"] and len(rows) == 200
        assert all(0 <= int(r[1]) <= n_max for r in rows)

    def test_scaling_at_the_top_of_the_size_range(self, tmp_path):
        # the half-life reads one k = 1 rate, not a table of 2j + 1 entries
        twice_j = 10**12
        out = tmp_path / "big.csv"
        assert main(["scaling", "--twice-j", str(twice_j), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        with decimal.localcontext(decimal.Context(prec=60)):
            q = Decimal(twice_j + 1)
            want = float(Decimal(2).ln() / -(1 - 2 / q**2).ln())
        assert abs(float(rows[0][1]) - want) <= 4 * math.ulp(want)

    def test_trajectories_at_the_top_of_the_size_range(self, tmp_path):
        out = tmp_path / "big.csv"
        assert main(["trajectories", "--twice-j", str(10**12), "--n-max", "10",
                     "--samples", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == HEADERS["trajectories"] and len(rows) == 5
        assert all(0.5 < float(r[2]) < 1.0 for r in rows)

    def test_classical_walk_at_the_top_of_the_size_range(self, tmp_path):
        # c_0, c_1 and A are scalars, not tables of 2j + 1 entries
        twice_j = 10**12
        out = tmp_path / "big.csv"
        assert main(["classical-walk", "--twice-j", str(twice_j), "--n-max", "10",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == HEADERS["classical-walk"] and len(rows) == 11
        with decimal.localcontext(decimal.Context(prec=60)):
            q = Decimal(twice_j + 1)
            amplitude, step = Decimal(twice_j) / (2 * q), 1 - 2 / q**2
            want = [float(Decimal("0.5") + amplitude * step**n) for n in range(11)]
        assert all(abs(float(row[1]) - w) <= 1e-15 for row, w in zip(rows, want))

    def test_seed_before_the_command_is_kept(self, tmp_path):
        # --seed is defined once, for the top level and every command alike,
        # and a command no longer resets a seed given before it
        args = ["--twice-j", "20", "--n-max", "200", "--samples", "4"]
        runs = {
            "before": ["--seed", "5", "trajectories", *args],
            "after": ["trajectories", *args, "--seed", "5"],
            "default": ["trajectories", *args],
        }
        blobs, seeds = {}, {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            blobs[name] = out.read_bytes()
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            seeds[name] = (manifest["seed"], manifest["config"]["seed"])
        assert blobs["before"] == blobs["after"] != blobs["default"]
        assert seeds == {"before": (5, 5), "after": (5, 5), "default": (1234, 1234)}

    def test_coherent_test_rows(self, tmp_path):
        out = tmp_path / "coh.csv"
        code = main([
            "coherent-test", "--twice-j", "2", "--n-max", "2", "--out", str(out)
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == HEADERS["coherent-test"]
        assert float(rows[0][1]) <= 1e-10      # n = 0: coherent by construction
        assert float(rows[1][1]) > 1e-6        # n = 1: not a mixture

    def test_scaling_ratios(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = main([
            "scaling", "--twice-j", "20,40,80,160", "--out", str(out)
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == HEADERS["scaling"]
        assert rows[0][2] == ""  # no half-size partner for the smallest entry
        for row in rows[1:]:
            tj = int(row[0])
            expected = half_life(SpinLabel(tj)) / half_life(SpinLabel(tj // 2))
            assert float(row[2]) == pytest.approx(expected, rel=1e-12)


class TestCliSurface:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--twice-j", "2", "--bogus"])
        assert excinfo.value.code == 2

    def test_invalid_twice_j_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--twice-j", "0"])
        assert excinfo.value.code == 2

    def test_twice_j_list_without_a_size_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--twice-j", ","])
        assert excinfo.value.code == 2
        assert "argument --twice-j: not an integer list: ','" in capsys.readouterr().err

    def test_l_max_option_is_gone(self, tmp_path):
        # the walk's fidelity reads only c_0 and c_1, so a truncation order
        # never changed an output
        for command in ("classical-walk", "compare"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--twice-j", "4", "--l-max", "8"])
            assert excinfo.value.code == 2
        assert "l_max" not in RunConfig.__dataclass_fields__
        out = tmp_path / "c.csv"
        assert main(["classical-walk", "--twice-j", "4", "--n-max", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        assert "l_max" not in manifest["config"]

    @pytest.mark.parametrize("argv,option", [
        (["--seed", "-5", "--selftest"], "--seed"),
        (["compare", "--twice-j", "2", "--seed", "-1"], "--seed"),
        (["trajectories", "--twice-j", "2", "--seed", str(2**64)], "--seed"),
        (["trajectories", "--twice-j", "2", "--samples", "0"], "--samples"),
        (["quantum-evolve", "--twice-j", "2", "--n-max", "-1"], "--n-max"),
        (["coherent-test", "--twice-j", "2", "--nodes", "0"], "--nodes"),
        (["coherent-test", "--twice-j", "2", "--nodes", "x"], "--nodes"),
    ])
    def test_out_of_range_option_is_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha,valid", [
        (math.nan, False), (-0.5, False), (4.0, False), (0.0, True), (math.pi, True),
    ])
    def test_alpha_bounds_hold_for_parser_and_config(self, tmp_path, capsys, alpha,
                                                     valid):
        # --alpha nan used to pass both and exit 1 from the walk's own check
        argv = ["compare", "--twice-j", "2", "--n-max", "3", "--alpha", repr(alpha),
                "--out", str(tmp_path / "c.csv")]
        if valid:
            assert main(argv) == 0
            assert RunConfig("compare", [2], alpha=alpha).alpha == alpha
            return
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "argument --alpha: alpha must lie in [0, pi]" in capsys.readouterr().err
        with pytest.raises(DomainError, match=r"^alpha must"):
            RunConfig("compare", [2], alpha=alpha)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_rejects_seed_outside_u64(self, seed):
        with pytest.raises(DomainError, match="seed"):
            RunConfig("trajectories", [2], seed=seed)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("field,value", [
        ("n_max", math.nan), ("n_max", -1), ("n_max", 2.5), ("n_nodes", 0),
        ("samples", 0), ("twice_j", []), ("twice_j", [2, 0]), ("twice_j", [2.5]),
    ])
    def test_config_rejects_settings_out_of_bounds(self, command, field, value):
        # the bounds the parser applies hold for every command's RunConfig;
        # n_max=nan used to pass and then fail in evolve with a TypeError
        settings = {"twice_j": [2], field: value}
        with pytest.raises(DomainError, match=rf"^{field} must"):
            RunConfig(command, **settings)

    def test_parser_is_built_once_and_parsing_leaves_it_unchanged(self, capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        argv = ["--seed", "3", "trajectories", "--twice-j", "2,4", "--samples", "5"]
        want = vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert want == {"seed": 3, "command": "trajectories", "twice_j": [2, 4], "samples": 5}
        for bad in (["trajectories", "--samples", "0"], ["compare", "--nodes", "3"]):
            with pytest.raises(SystemExit):
                parser.parse_args(bad)
        assert vars(parser.parse_args(argv)) == want
        assert vars(parser.parse_args(["compare", "--twice-j", "2"])) == {
            "command": "compare", "twice_j": [2]}

    def test_command_table_parser_and_readme_agree(self):
        # one table states every command: its subcommand takes exactly the
        # table's options, and README's "Commands:" line lists the same names
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        common = {"help", "twice_j", "out", "seed", "selftest"}
        options = {name: {a.dest for a in parser._actions} - common
                   for name, parser in subparsers.choices.items()}
        assert options == {name: set(command.options)
                           for name, command in cli.COMMANDS.items()}
        assert list(HEADERS) == list(cli.COMMANDS)
        line = re.search(r"^Commands: (.*?)\. Options", README.read_text(),
                         re.MULTILINE | re.DOTALL).group(1)
        assert re.findall(r"`([a-z-]+)`", line) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", [name for name, command in cli.COMMANDS.items()
                                         if "n_max" in command.options])
    def test_n_max_help_names_the_commands_own_default(self, command):
        # five half-lives are 5 steps at 2j = 1; coherent-test takes 8 steps
        default, readme, steps = {"coherent-test": ("8", "8 for `coherent-test`", 8)}.get(
            command, ("5 half-lives", "five half-lives;", 5))
        (subparsers,) = [a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        (n_max,) = [a for a in subparsers.choices[command]._actions if a.dest == "n_max"]
        assert n_max.help == f"steps to simulate (default: {default})"
        if command != "trajectories":  # its rows are samples, not steps
            columns = cli.COMMANDS[command].build(RunConfig(command, [1]), 1)
            assert columns[0][-1] == steps
        stated = re.search(r"Options: `--n-max` \(default: (.*?)\),", README.read_text(),
                           re.DOTALL).group(1)
        assert readme in stated

    def test_manifest_config_holds_every_setting(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum-evolve", "--twice-j", "2", "--n-max", "3",
                     "--out", str(out)]) == 0
        config = json.loads((tmp_path / "q.manifest.json").read_text())["config"]
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(config) == fields - {"command"}
        assert config["out"] == str(out) and config["n_max"] == 3

    def test_config_keeps_the_values_it_checked(self, tmp_path):
        # numpy scalars are stored as the int or float they were checked as,
        # so the manifest records numbers rather than their strings
        out = tmp_path / "w.csv"
        config = RunConfig("classical-walk", [np.int64(2)], n_max=np.int64(3),
                           alpha=np.float32(0.5), seed=np.uint64(7), samples=np.int32(5),
                           n_nodes=np.int16(9), out=out)
        settings = {"twice_j": [2], "n_max": 3, "alpha": 0.5, "seed": 7, "samples": 5,
                    "n_nodes": 9}
        assert {name: getattr(config, name) for name in settings} == settings
        for name in settings.keys() - {"twice_j"}:
            assert type(getattr(config, name)) is type(settings[name]), name
        assert cli.run(config) == 0
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())["config"]
        assert manifest == {**settings, "out": str(out)}

    def test_selftest_is_not_a_config_field(self):
        assert "selftest" not in RunConfig.__dataclass_fields__
        assert RunConfig("compare", [2]).out == Path("compare.csv")

    def test_out_given_as_a_string_is_read_as_a_path(self, tmp_path):
        out = str(tmp_path / "x.csv")
        config = RunConfig("quantum-evolve", [2], n_max=3, out=out)
        assert config.out == Path(out)
        assert cli.run(config) == 0
        assert (tmp_path / "x.manifest.json").exists()

    def test_option_bounds_are_inclusive(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["trajectories", "--twice-j", "2", "--n-max", "0", "--samples", "1",
                     "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert main(["--seed", "0", "--selftest"]) == 0
        # --nodes 1 passes the parser; the grid then names its own minimum
        assert main(["coherent-test", "--twice-j", "2", "--nodes", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: coherent-test: 2j=2: n_nodes must be an integer >= 3, got 1\n")

    def test_missing_twice_j_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare"])
        assert excinfo.value.code == 2

    def test_selftest_flag(self, capsys):
        assert main(["--selftest"]) == 0
        captured = capsys.readouterr()
        assert "selftest:" in captured.out
        assert " 0 failed" in captured.out

    def test_selftest_on_subcommand(self, capsys):
        assert main(["compare", "--selftest"]) == 0
        assert "selftest:" in capsys.readouterr().out

    def test_selftest_before_subcommand(self, capsys, monkeypatch):
        assert main(["--selftest", "compare"]) == 0
        assert " 0 failed" in capsys.readouterr().out
        seeds = []
        monkeypatch.setattr(cli, "run_selftest",
                            lambda seed: seeds.append(seed) or (10, 0))
        assert main(["--selftest", "compare"]) == 0
        assert main(["--seed", "9", "compare", "--selftest"]) == 0
        assert main(["--selftest", "--seed", "9", "scaling", "--seed", "8"]) == 0
        assert seeds == [1234, 9, 8]

    def test_unwritable_out_is_reported(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["quantum-evolve", "--twice-j", "2", "--n-max", "3",
                     "--out", str(blocker / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantum-evolve: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 129. GiB for an array", "Unable to allocate 129. GiB"),
        ("", "MemoryError"),
    ])
    def test_memory_error_is_reported(self, tmp_path, monkeypatch, capsys, message, shown):
        # numpy raises a MemoryError before it allocates a buffer it cannot
        # have; the run reports it as an error, not a traceback
        def build(config, j):
            raise MemoryError(message)

        command = cli.COMMANDS["quantum-evolve"]
        monkeypatch.setitem(cli.COMMANDS, "quantum-evolve",
                            dataclasses.replace(command, build=build))
        code = main(["quantum-evolve", "--twice-j", "2", "--out", str(tmp_path / "q.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantum-evolve: ") and shown in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["quantum-evolve", "--twice-j", "2", "--n-max", str(10**20)],
        ["classical-walk", "--twice-j", "2", "--n-max", str(10**20)],
        ["trajectories", "--twice-j", "2", "--samples", str(10**20)],
        ["coherent-test", "--twice-j", "2", "--nodes", str(10**20)],
        ["quantum-evolve", "--twice-j", str(10**20)],
        ["coherent-test", "--twice-j", "2", "--n-max", str(10**20)],
        # np.linspace gave an empty grid here, and an IndexError escaped run
        pytest.param(["coherent-test", "--twice-j", "2", "--nodes", str(2**63 - 1)],
                     id="coherent-test--nodes-int64-max"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_size_past_the_array_limit_is_reported(self, tmp_path, capsys, argv):
        # 2**60 doubles are more than any numpy array holds: a usage error
        # that names the flag, before any work
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path / "big.csv")])
        assert excinfo.value.code == 2
        flag, value = argv[-2:]
        err = capsys.readouterr().err
        assert re.search(rf"error: argument {flag}: \w+ must be an integer in "
                         rf"\[[01], 2\*\*60\), got {value}$", err, re.MULTILINE)
        assert "Traceback" not in err
        assert not (tmp_path / "big.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["trajectories", "--samples"], ["coherent-test", "--nodes"],
        ["quantum-evolve", "--n-max"], ["coherent-test", "--n-max"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_size_just_below_the_bound_fails_to_allocate(self, tmp_path, capsys, argv):
        # numpy refuses 2**59 doubles before it touches memory; run reports it
        # with the 2j of the table that asked
        code = main([*argv, str(2**59), "--twice-j", "2", "--out", str(tmp_path / "big.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]}: 2j=2: Unable to allocate 4.00 EiB")
        assert "Traceback" not in err
        assert not (tmp_path / "big.csv").exists()

    def test_failure_names_command_size_and_step(self, tmp_path, monkeypatch, capsys):
        from drfsim import quantum_drf

        exact_rates = quantum_drf.transfer_rates
        monkeypatch.setattr(quantum_drf, "transfer_rates",
                            lambda j: exact_rates(j) * 1.01)
        out = tmp_path / "q.csv"
        code = main(["quantum-evolve", "--twice-j", "6", "--n-max", "40",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantum-evolve: ")
        assert "2j=6, step 1:" in err
        assert "MAP_TOL" in err

    def test_failed_later_size_keeps_earlier_csv(self, tmp_path, monkeypatch, capsys):
        # sizes are built and written one at a time; the manifest waits for all
        from drfsim import quantum_drf

        exact_rates = quantum_drf.transfer_rates
        monkeypatch.setattr(quantum_drf, "transfer_rates", lambda j: (
            exact_rates(j) * (1.01 if j == 6 else 1.0)))
        out = tmp_path / "q.csv"
        code = main(["quantum-evolve", "--twice-j", "6,4", "--n-max", "40",
                     "--out", str(out)])
        assert code == 1
        assert "error: quantum-evolve: " in capsys.readouterr().err
        header, rows = read_csv(tmp_path / "q-2j4.csv")
        assert header == HEADERS["quantum-evolve"] and len(rows) == 41
        assert not (tmp_path / "q-2j6.csv").exists()
        assert not (tmp_path / "q.manifest.json").exists()

    def test_unwritable_out_fails_before_the_build(self, tmp_path, monkeypatch, capsys):
        built = []
        command = cli.COMMANDS["quantum-evolve"]
        monkeypatch.setitem(cli.COMMANDS, "quantum-evolve", dataclasses.replace(
            command, build=lambda *args: built.append(args) or command.build(*args)))
        assert main(["quantum-evolve", "--twice-j", "600", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: quantum-evolve: [Errno 21] Is a directory: '{tmp_path}'\n")
        assert built == []

    def test_write_fault_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        chunks = []
        chunk_bytes = cli._chunk_bytes

        def faulty_chunk_bytes(columns):
            chunks.append(len(columns[0]))
            if len(chunks) == 2:
                raise OSError(28, "No space left on device")
            return chunk_bytes(columns)

        monkeypatch.setattr(cli, "_chunk_bytes", faulty_chunk_bytes)
        out = tmp_path / "q.csv"
        code = main(["quantum-evolve", "--twice-j", "2", "--n-max", str(2 * cli._CSV_CHUNK_ROWS),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: quantum-evolve: [Errno 28] No space left on device\n")
        assert chunks == [cli._CSV_CHUNK_ROWS] * 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM ends a process there at once")
    def test_terminated_run_leaves_no_file(self, tmp_path):
        # the CSV is written under a temporary name, and SIGTERM raises
        # SystemExit in main, so the temporary file is removed as well
        out = tmp_path / "killed.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "drfsim", "quantum-evolve", "--twice-j", "1000",
             "--out", str(out)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        temporary = tmp_path / f"killed.csv.{proc.pid}.tmp"
        try:
            deadline = time.monotonic() + 60.0
            while not temporary.exists():
                assert proc.poll() is None, "the run ended before its temporary file was seen"
                assert time.monotonic() < deadline, "no temporary file after 60 s"
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once it has ended
            proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM, err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # neither the output nor its temporary file

    def test_main_restores_the_sigterm_handler(self, tmp_path):
        previous = signal.getsignal(signal.SIGTERM)
        assert main(["quantum-evolve", "--twice-j", "2", "--n-max", "3",
                     "--out", str(tmp_path / "q.csv")]) == 0
        assert signal.getsignal(signal.SIGTERM) is previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv", "q.manifest.json"]

    def test_main_runs_from_a_worker_thread(self, tmp_path):
        # only the main thread may set the SIGTERM handler, so a worker thread
        # runs without one
        out = tmp_path / "s.csv"
        status = []
        worker = threading.Thread(target=lambda: status.append(
            main(["scaling", "--twice-j", "2,4", "--out", str(out)])))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and status == [0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.manifest.json"]
        assert [row[0] for row in read_csv(out)[1]] == ["2", "4"]

    def test_selftest_builds_each_kraus_set_once_per_run(self, monkeypatch):
        # the completeness check builds each set afresh; the dense maps read
        # quantum_drf's cached sets, built once for both runs
        from drfsim import quantum_drf, selftest

        built, cached = [], []
        exact_build = quantum_drf.build_kraus
        monkeypatch.setattr(quantum_drf, "build_kraus",
                            lambda j: built.append(j) or exact_build(j))
        monkeypatch.setattr(quantum_drf, "_kraus", functools.lru_cache(maxsize=32)(
            lambda j: cached.append(j) or exact_build(j)))
        for runs in (1, 2):
            assert selftest.run_selftest(stream=io.StringIO()) == (10, 0)
            assert sorted(built) == sorted(list(range(1, 21)) * runs)
            assert sorted(cached) == list(range(1, 21))

    def test_selftest_catches_a_wrong_legendre_recurrence(self, monkeypatch):
        # the recurrence factor (2k + 1)/(k + 2) in place of (2k + 1)/(k + 1)
        # keeps P_0 and P_1 but moves P_2, so c_2 leaves c_2(0) P_2(cos alpha)^n
        from drfsim import classical_walk, selftest

        def wrong_legendre_values(l_max, x):
            yield 1.0
            yield x
            d, p = x - 1.0, x
            for k in range(1, l_max):
                d = ((2 * k + 1) / (k + 2)) * (x - 1.0) * p + (k / (k + 1)) * d
                p = p + d
                yield p

        monkeypatch.setattr(classical_walk, "_legendre_values", wrong_legendre_values)
        stream = io.StringIO()
        selftest.run_selftest(stream=stream)
        failures = [line for line in stream.getvalue().splitlines()
                    if line.startswith("FAIL legendre normalization: ")]
        assert len(failures) == 1
        assert failures[0].startswith("FAIL legendre normalization: 2j=1, n=")
        assert "exceeds STRUCTURE_TOL = 1e-12" in failures[0]

    @pytest.mark.parametrize("mutate, message, fixed_point", [
        (lambda rho: rho * (1.0 + 1e-9), r"\|trace - 1\| .* exceeds STRUCTURE_TOL = 1e-12",
         None),
        (lambda rho: rho + np.diag(np.r_[-0.5, np.zeros(len(rho) - 2), 0.5]),
         r"eigenvalue .* is below EIGENVALUE_FLOOR",
         # at 2j = 1 the shifted state is valid, and 0.5 from the fixed point
         "FAIL maximally mixed fixed point: 2j=1: drift of the maximally mixed state 0.5 "
         "exceeds STRUCTURE_TOL = 1e-12"),
    ], ids=["trace", "eigenvalue"])
    def test_selftest_reports_a_broken_sandwich_as_a_failure(self, monkeypatch, mutate,
                                                             message, fixed_point):
        # the mapped state's own constructor refuses it (or the fixed-point
        # suite its drift); the suite fails with that message, not as an
        # unexpected error
        from drfsim import quantum_drf, selftest

        exact_sandwich = quantum_drf._sandwich
        monkeypatch.setattr(quantum_drf, "_sandwich",
                            lambda *args: mutate(exact_sandwich(*args)))
        stream = io.StringIO()
        assert selftest.run_selftest(stream=stream) == (6, 4)
        failures = [line for line in stream.getvalue().splitlines()
                    if line.startswith("FAIL ")]
        suites = ["trace preservation", "positivity of mapped states", "diagonal closure",
                  "maximally mixed fixed point"]
        assert [line.split(":")[0] for line in failures] == [f"FAIL {s}" for s in suites]
        if fixed_point is not None:
            assert failures.pop() == fixed_point
        for line in failures:
            assert re.match(r"FAIL [a-z ]+: FrameState: 2j=\d+: ", line), line
            assert re.search(message, line), line
            assert "unexpected" not in line

    def test_selftest_labels_an_error_outside_the_package_unexpected(self, monkeypatch):
        from drfsim import selftest

        def broken(rng):
            return 1 / 0

        monkeypatch.setattr(selftest, "CHECKS", [("broken", broken), *selftest.CHECKS[1:]])
        stream = io.StringIO()
        assert selftest.run_selftest(stream=stream) == (9, 1)
        failures = [line for line in stream.getvalue().splitlines() if line.startswith("FAIL ")]
        assert failures == ["FAIL broken: unexpected ZeroDivisionError: division by zero"]

    def test_selftest_reports_a_coherence_made_from_a_diagonal_state(self, monkeypatch):
        # a map that leaks a valid coherence into the image of a diagonal
        # matrix fails only the diagonal-closure suite, at its first size
        from drfsim import quantum_drf, selftest

        exact_map = quantum_drf.apply_map

        def leaky_map(state):
            mapped = exact_map(state)
            rho = mapped.matrix.copy()
            if state.diagonal or np.any(rho - np.diag(np.diagonal(rho))):
                return mapped
            rho[0, 1] = rho[1, 0] = 0.5 * min(rho[0, 0].real, rho[1, 1].real)
            return quantum_drf.FrameState(rho)

        monkeypatch.setattr(quantum_drf, "apply_map", leaky_map)
        stream = io.StringIO()
        assert selftest.run_selftest(stream=stream) == (9, 1)
        failures = [line for line in stream.getvalue().splitlines() if line.startswith("FAIL ")]
        assert failures == [
            "FAIL diagonal closure: 2j=1: a diagonal state mapped to a non-diagonal one"]

    def test_selftest_failure_survives_optimised_mode(self):
        # python -O strips assert statements; the checks must still fail
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "from drfsim import angular_momentum as am, selftest\n"
             "exact = am.coherent_columns\n"
             "am.coherent_columns = lambda j, thetas: 1.001 * exact(j, thetas)\n"
             "print(selftest.run_selftest())\n"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        failures = [line for line in lines if line.startswith("FAIL ")]
        assert len(failures) == 1
        assert failures[0].startswith("FAIL coherent population sums and symmetry: 2j=")
        assert "STRUCTURE_TOL = 1e-12" in failures[0]
        assert lines[-1] == "(9, 1)"

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "entry.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "drfsim", "quantum-evolve",
             "--twice-j", "2", "--n-max", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
