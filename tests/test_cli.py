"""CSV contracts, reproducibility, exit codes, and the selftest flag."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from drfsim import SpinLabel, closed_form_fidelity
from drfsim.cli import HEADERS, default_n_max, half_life, main


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


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

    def test_threads_cap_does_not_change_output(self, tmp_path, monkeypatch):
        blobs = {}
        for cap in ("1", "4"):
            monkeypatch.setenv("DRFSIM_THREADS", cap)
            out = tmp_path / f"threads{cap}.csv"
            main(["compare", "--twice-j", "2,4,6", "--n-max", "20",
                  "--out", str(out)])
            blobs[cap] = b"".join(
                (tmp_path / f"threads{cap}-2j{tj}.csv").read_bytes()
                for tj in (2, 4, 6)
            )
        assert blobs["1"] == blobs["4"]

    def test_bad_threads_env_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRFSIM_THREADS", "many")
        out = tmp_path / "x.csv"
        code = main(["compare", "--twice-j", "2,4", "--n-max", "3",
                     "--out", str(out)])
        assert code == 1

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
        assert "ORACLE_TOL" in err

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
