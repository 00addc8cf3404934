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
It also records the Python, numpy, BLAS, machine architecture and the SIMD
extensions numpy dispatches to that the digests were taken with (``np.exp``
and ``np.log1p`` move by an ulp between SIMD sets): ``tests/test_golden.py``
compares bytes where they match and the stored rows as values elsewhere.  A
change that moves a digest says which cells moved and why.

The manifest also pins the seeded stream of ``sample_fidelity_batch``: for
each case in ``SAMPLER_CASES``, the sha256 of its ``plus_counts``.  Each
count inverts the exact binomial CDF at one ``PCG64`` uniform, and the CDF
table uses only correctly rounded arithmetic, so the counts are the same on
every machine and ``tests/test_quantum_drf.py`` asserts them everywhere.
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

try:
    from numpy._core import _multiarray_umath as umath  # numpy >= 2
except ImportError:
    from numpy.core import _multiarray_umath as umath

from drfsim import SpinLabel, cli, sample_fidelity_batch

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

# sample_fidelity_batch arguments (2j, n_max, n_samples, seed) by case name:
# 2000 records at 2j = 1, 20 and 40 with CLI-style seeds, no steps, one sample,
# and criterion 5's call
SAMPLER_CASES = {
    "2j1-n40-S2000": (1, 40, 2000, [7, 1]),
    "2j20-n762-S2000": (20, 762, 2000, [7, 20]),
    "2j40-n2912-S2000": (40, 2912, 2000, [99, 40]),
    "2j4-n0-S5": (4, 0, 5, 3),
    "2j4-n1-S1": (4, 1, 1, 3),
    "2j4-n20-S100000": (4, 20, 100_000, 2024),
}


def environment() -> dict:
    """What the bytes may depend on besides the source: Python, numpy, the
    BLAS numpy was built with, the machine architecture and the SIMD
    extensions numpy dispatches to at run time (the "found" list of
    ``np.show_runtime()``, which ``NPY_DISABLE_CPU_FEATURES`` shortens)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "simd": [name for name in umath.__cpu_dispatch__
                     if umath.__cpu_features__.get(name)]}


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


def plus_counts_digest(twice_j, n_max, n_samples, seed) -> str:
    """sha256 of the little-endian int64 ``plus_counts`` of
    ``sample_fidelity_batch`` for these arguments."""
    _, counts = sample_fidelity_batch(SpinLabel(twice_j), n_max, n_samples, seed)
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()


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
    pinned = {name: {"case": list(case), "sha256": plus_counts_digest(*case)}
              for name, case in SAMPLER_CASES.items()}
    manifest = {"environment": environment(),
                "outputs": {name: record(data) for name, data in outputs.items()},
                "plus_counts": pinned}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(outputs)} outputs, {len(pinned)} sampler streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
