"""Golden outputs of the ``drfsim`` command: rebuild them and record
``manifest.json`` beside this file.

    PYTHONPATH=src python tests/golden/regenerate.py

The set is every CSV each command writes at its defaults for
2j in {1, 2, 3, 20, 200}; ``trajectories`` at two more seeds (2j = 20); the
``compare`` sweep 1,2,20; ``scaling`` over 1,2,20,200; and the ``--selftest``
output.  2j = 3 is in it because its three series tables hold cells that the
writer's numpy route leaves to per-cell formatting.  For each output the
manifest keeps the sha256 of its bytes, its line count and, as text, its
header line with the first, the last and 8 evenly spaced rows between them.
It also records the Python, numpy and BLAS the digests were taken with:
``tests/test_golden.py`` compares bytes where they match and the stored rows
as values elsewhere.  A change that moves a digest says which cells moved
and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from drfsim import cli

MANIFEST = Path(__file__).resolve().with_name("manifest.json")

SIZES = (1, 2, 3, 20, 200)
SAMPLED_ROWS = 10  # the first, the last and 8 evenly spaced between them

# output name -> argv; a sweep writes <name>-2j<K>.csv, one file per size
CASES = {
    **{f"{command}-2j{tj}": [command, "--twice-j", str(tj)]
       for command in cli.COMMANDS for tj in SIZES},
    **{f"trajectories-2j20-seed{seed}": ["--seed", str(seed), "trajectories",
                                         "--twice-j", "20"] for seed in (7, 99)},
    "compare-sweep": ["compare", "--twice-j", "1,2,20"],
    "scaling-sweep": ["scaling", "--twice-j", "1,2,20,200"],
}


def environment() -> dict:
    """What the bytes may depend on besides the source: Python, numpy, the
    BLAS numpy was built with and the machine architecture."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def build_outputs() -> dict[str, bytes]:
    """Every golden output, by file name, written by ``cli.main`` in-process."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            folder = Path(tmp) / name
            if cli.main([*argv, "--out", str(folder / f"{name}.csv")]) != 0:
                raise RuntimeError(f"drfsim {' '.join(argv)} failed")
            outputs.update((path.name, path.read_bytes())
                           for path in sorted(folder.glob("*.csv")))
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["--selftest"])
    outputs["selftest.txt"] = text.getvalue().encode()
    return outputs


def sampled_lines(lines: list[str]) -> list[tuple[int, str]]:
    """Line 0 (the header) and ``SAMPLED_ROWS`` evenly spaced rows from line
    1 to the last, with their line numbers."""
    picks = {0}
    if len(lines) > 1:
        picks.update(np.linspace(1, len(lines) - 1, SAMPLED_ROWS).round().astype(int).tolist())
    return [(i, lines[i]) for i in sorted(picks)]


def record(data: bytes) -> dict:
    lines = data.decode().splitlines()
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": len(lines),
            "sampled": sampled_lines(lines)}


def main() -> int:
    outputs = build_outputs()
    manifest = {"environment": environment(),
                "outputs": {name: record(data) for name, data in outputs.items()}}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
