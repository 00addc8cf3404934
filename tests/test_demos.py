"""Every script in demos/ runs to completion and prints its table, and
README's quick example runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # without matplotlib a demo prints its table and skips the figure; with
    # it, the figure lands in tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if "savefig" in demo.read_text(encoding="utf-8") and (
            "matplotlib not installed" not in proc.stdout):
        assert (tmp_path / f"{demo.stem}.png").is_file(), proc.stdout


def test_readme_quick_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Quick example:\s*```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block after 'Quick example:'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-10
