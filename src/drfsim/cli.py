"""Command-line front end: sweeps, comparison tables, and CSV/JSON artifacts.

Commands
--------
quantum-evolve   iterated channel fidelity vs the closed form
classical-walk   random-walk fidelity vs its closed form
compare          quantum and classical routes side by side
trajectories     record-conditioned Monte-Carlo samples
coherent-test    non-negative fit residual per step
scaling          half-life of the fidelity decay per frame size

All commands accept ``--selftest`` to run the structural invariant suites
instead.  Sweeps over several 2j values run concurrently (capped by the
DRFSIM_THREADS environment variable) and write one CSV per 2j so every file
keeps its fixed column schema.  Each command builds its table as columns of
arrays; floats are written in scientific notation with 17 significant
digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .angular_momentum import SpinLabel, as_spin
from .classical_walk import classical_fidelity_series, fitted_step
from .coherent_analysis import convexity_series
from .errors import DomainError, DrfsimError, InternalConsistencyError
from .quantum_drf import evolve, sample_fidelity_batch
from .selftest import DEFAULT_SEED, run_selftest

__all__ = ["RunConfig", "run", "main", "half_life", "default_n_max", "HEADERS"]

COMMANDS = (
    "quantum-evolve",
    "classical-walk",
    "compare",
    "trajectories",
    "coherent-test",
    "scaling",
)

HEADERS = {
    "quantum-evolve": ["n", "F_Q_map", "F_Q_closed", "diff_map_closed"],
    "classical-walk": ["n", "F_C", "F_C_closed", "diff"],
    "compare": ["n", "F_Q_map", "F_Q_closed", "F_C", "diff_QC", "diff_map_closed"],
    "trajectories": ["sample", "n_plus", "F_conditional"],
    "coherent-test": ["n", "residual", "weight_sum_gap"],
    "scaling": ["twice_j", "half_life", "ratio_to_half"],
}


def half_life(j) -> float:
    """Steps after which the decaying part of the fidelity has halved.

        n_half = ln 2 / (-ln(1 - 2/(2j+1)^2))

    Grows like (ln 2 / 2) (2j+1)^2, i.e. quadratically in the frame size.
    """
    j = as_spin(j)
    if j.twice_j < 1:
        raise DomainError("half_life requires 2j >= 1")
    q = j.twice_j + 1.0
    return math.log(2.0) / (-math.log1p(-2.0 / q**2))


def default_n_max(j) -> int:
    """Sweep length reaching the decay plateau: ceil(5 * half_life)."""
    return math.ceil(5.0 * half_life(j))


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation."""

    command: str
    twice_j: list[int] = field(default_factory=list)
    n_max: int | None = None
    alpha: float | None = None
    seed: int = DEFAULT_SEED
    samples: int = 1000
    l_max: int | None = None
    n_nodes: int | None = None
    out: Path | None = None
    selftest: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if not self.selftest:
            if not self.twice_j or min(self.twice_j) < 1:
                raise DomainError("twice_j values must be integers >= 1")
            if self.n_max is not None and self.n_max < 0:
                raise DomainError("n_max must be non-negative")
            if self.command == "trajectories" and self.samples < 1:
                raise DomainError("samples must be >= 1")


def _threads_cap(n_jobs: int) -> int:
    raw = os.environ.get("DRFSIM_THREADS")
    if raw is None:
        return min(n_jobs, os.cpu_count() or 1)
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"DRFSIM_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"DRFSIM_THREADS must be >= 1, got {cap}")
    return min(n_jobs, cap)


def _sweep(jobs, worker):
    """Run ``worker`` over ``jobs``; results keep job order regardless of schedule."""
    workers = _threads_cap(len(jobs))
    if workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs))


# -- per-command row builders (pure functions of the config) -----------------


def _resolve_n_max(config: RunConfig, j: SpinLabel) -> int:
    if config.n_max is not None:
        return config.n_max
    if config.command == "coherent-test":
        return 8
    return default_n_max(j)


def _series_columns(series):
    diff = np.abs(series.fidelity - series.closed_form)
    return [series.steps, series.fidelity, series.closed_form, diff]


def _columns_quantum(config: RunConfig, j: SpinLabel):
    return _series_columns(evolve(j, _resolve_n_max(config, j)))


def _columns_classical(config: RunConfig, j: SpinLabel):
    alpha = config.alpha if config.alpha is not None else fitted_step(j)
    return _series_columns(
        classical_fidelity_series(j, alpha, _resolve_n_max(config, j), config.l_max)
    )


def _columns_compare(config: RunConfig, j: SpinLabel):
    n_max = _resolve_n_max(config, j)
    alpha = config.alpha if config.alpha is not None else fitted_step(j)
    quantum = evolve(j, n_max)
    classical = classical_fidelity_series(j, alpha, n_max, config.l_max)
    f_map, f_closed, f_c = quantum.fidelity, quantum.closed_form, classical.fidelity
    return [quantum.steps, f_map, f_closed, f_c,
            np.abs(f_c - f_map), np.abs(f_map - f_closed)]


def _columns_trajectories(config: RunConfig, j: SpinLabel):
    n_max = _resolve_n_max(config, j)
    fidelities, plus_counts = sample_fidelity_batch(
        j, n_max, config.samples, [config.seed, j.twice_j]
    )
    return [np.arange(config.samples), plus_counts, fidelities]


def _columns_coherent(config: RunConfig, j: SpinLabel):
    n_max = _resolve_n_max(config, j)
    n_nodes = config.n_nodes if config.n_nodes is not None else 8 * j.dim
    results = convexity_series(j, n_max, n_nodes)
    return [np.arange(n_max + 1),
            np.array([r.residual for r in results]),
            np.array([r.weight_sum_gap for r in results])]


COLUMN_BUILDERS = {
    "quantum-evolve": _columns_quantum,
    "classical-walk": _columns_classical,
    "compare": _columns_compare,
    "trajectories": _columns_trajectories,
    "coherent-test": _columns_coherent,
}


def _scaling_columns(config: RunConfig):
    js = sorted(config.twice_j)
    lives = dict(zip(js, _sweep(js, lambda tj: half_life(SpinLabel(tj)))))
    ratios = [
        lives[tj] / lives[tj // 2] if tj // 2 in lives and tj % 2 == 0 else None
        for tj in js
    ]
    return [js, [lives[tj] for tj in js], ratios]


# -- formatting and output ----------------------------------------------------


_CSV_CHUNK_ROWS = 4096  # rows formatted at a time, bounding the Python objects alive


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _format_column(values) -> list[str]:
    """Cells of one column: integers plainly, floats in scientific notation
    with 17 significant digits, None as an empty cell."""
    if isinstance(values, np.ndarray):
        fmt = "{:d}" if values.dtype.kind in "iu" else "{:.16e}"
        return list(map(fmt.format, values.tolist()))
    return [_format_cell(v) for v in values]


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header``, one line per row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            cells = [_format_column(c[start:start + _CSV_CHUNK_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _check_schema(path: Path, header):
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != ",".join(header):
        raise InternalConsistencyError(
            f"harness: {path} header {first!r} violates the column contract"
        )


def _output_paths(config: RunConfig) -> dict[int, Path]:
    """One CSV per swept 2j; a single value writes exactly to --out."""
    out = config.out or Path(f"{config.command}.csv")
    if config.command == "scaling" or len(config.twice_j) == 1:
        return {config.twice_j[0]: out}
    return {
        tj: out.with_name(f"{out.stem}-2j{tj}{out.suffix or '.csv'}")
        for tj in config.twice_j
    }


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    if config.selftest:
        _, failed = run_selftest(seed=config.seed)
        return 0 if failed == 0 else 1
    started = time.perf_counter()
    try:
        header = HEADERS[config.command]
        paths = _output_paths(config)
        if config.command == "scaling":
            columns_by_j = {config.twice_j[0]: _scaling_columns(config)}
        else:
            builder = COLUMN_BUILDERS[config.command]
            js = sorted(set(config.twice_j))
            results = _sweep(
                js, lambda tj: builder(config, SpinLabel(tj))
            )
            columns_by_j = dict(zip(js, results))
        written = []
        for tj in sorted(columns_by_j):
            path = paths[tj]
            _write_csv(path, header, columns_by_j[tj])
            _check_schema(path, header)
            written.append(path)
        _write_manifest(config, written, time.perf_counter() - started)
    except DrfsimError as exc:
        print(f"error: {config.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def _write_manifest(config: RunConfig, outputs, wall_time):
    out = config.out or Path(f"{config.command}.csv")
    payload = {
        "command": config.command,
        "config": {
            "twice_j": config.twice_j,
            "n_max": config.n_max,
            "alpha": config.alpha,
            "seed": config.seed,
            "samples": config.samples,
            "l_max": config.l_max,
            "n_nodes": config.n_nodes,
            "out": str(out),
        },
        "library_version": __version__,
        "seed": config.seed,
        "wall_time_s": wall_time,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "columns": HEADERS[config.command],
    }
    path = _manifest_path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- argument parsing ----------------------------------------------------------


def _parse_twice_j(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("twice-j values must be integers >= 1")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drfsim",
        description="Directional-reference-frame degradation simulator.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--twice-j",
        type=_parse_twice_j,
        metavar="INT[,INT...]",
        help="frame size(s) as 2j; a comma list sweeps several sizes",
    )
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="U64")
    common.add_argument("--out", type=Path, metavar="PATH", help="CSV output path")
    common.add_argument(
        "--selftest",
        action="store_true",
        help="run the structural invariant suites and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *, n_max=True, alpha=False, samples=False,
            l_max=False, nodes=False):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        if n_max:
            cmd.add_argument("--n-max", type=int, metavar="N",
                             help="steps to simulate (default: 5 half-lives)")
        if alpha:
            cmd.add_argument("--alpha", type=float, metavar="RAD",
                             help="walk step angle (default: fitted)")
        if samples:
            cmd.add_argument("--samples", type=int, default=1000, metavar="N")
        if l_max:
            cmd.add_argument("--l-max", type=int, metavar="L")
        if nodes:
            cmd.add_argument("--nodes", type=int, metavar="N",
                             help="coherent grid size (default: 8(2j+1))")
        return cmd

    add("quantum-evolve", "iterate the measurement channel")
    add("classical-walk", "run the random walk on the sphere", alpha=True, l_max=True)
    add("compare", "quantum vs classical fidelity table", alpha=True, l_max=True)
    add("trajectories", "sample record-conditioned trajectories", samples=True)
    add("coherent-test", "non-negative fit residual per step", nodes=True)
    add("scaling", "half-life per frame size", n_max=False)
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the structural invariant suites and exit",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="U64")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.selftest:
            config = RunConfig(command="scaling", twice_j=[1], selftest=True,
                               seed=args.seed)
            return run(config)
        parser.print_usage(sys.stderr)
        return 2
    if not args.selftest and args.twice_j is None:
        parser.error(f"{args.command}: --twice-j is required")
    config = RunConfig(
        command=args.command,
        twice_j=args.twice_j or [1],
        n_max=getattr(args, "n_max", None),
        alpha=getattr(args, "alpha", None),
        seed=args.seed,
        samples=getattr(args, "samples", 1000),
        l_max=getattr(args, "l_max", None),
        n_nodes=getattr(args, "nodes", None),
        out=args.out,
        selftest=args.selftest,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
