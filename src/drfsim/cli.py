"""Command-line front end: sweeps, comparison tables, and CSV/JSON artifacts.

Commands
--------
quantum-evolve   iterated channel fidelity vs the closed form
classical-walk   random-walk fidelity vs its closed form
compare          quantum and classical routes side by side
trajectories     record-conditioned Monte-Carlo samples
coherent-test    non-negative fit residual per step
scaling          half-life of the fidelity decay per frame size

``--seed`` and ``--selftest`` may come before or after the command;
``--selftest`` runs the structural invariant suites with that seed
instead.  Sweeps over several 2j values build and write one size after
another, one CSV per 2j so every file keeps its fixed column schema; a
failure at a later size leaves the earlier CSVs written and writes no
manifest.  Each
command builds its table as columns of arrays; floats are written in
scientific notation with 17 significant digits so they round-trip exactly,
byte for byte as ``'%.16e'`` writes them.  The writer formats each chunk of
rows in numpy: non-negative integers below 10**8 and floats that are +0.0
or in [1e-99, 1e15) go through digit tables, the significand rounded from a
double-double product with 10**k; a row with any other cell, or one whose
rounding falls within ``CSV_TIE_MARGIN`` of a decimal tie, is formatted by
``%`` with the row template, as are the list columns of ``scaling``.  The
JSON manifest reports, per 2j, the seconds spent building the columns and
writing the CSV, and the CSV's rows and bytes.

``trajectories`` seeds its generator with ``[seed, 2j]`` and draws one
uniform per sample per step; a draw below p+ = (j+1)/(2j+1) is a +1 outcome.
``F_conditional`` is the closed form F_K at the count K = ``n_plus``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .angular_momentum import SpinLabel
from .classical_walk import classical_fidelity_series, fitted_step
from .coherent_analysis import convexity_series
from .errors import DomainError, DrfsimError, InternalConsistencyError
from .quantum_drf import evolve, multipole_spectrum, sample_fidelity_batch
from .selftest import DEFAULT_SEED, run_selftest
from .tolerances import CSV_FAST_MIN, CSV_TIE_MARGIN

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

        n_half = ln 2 / (-ln(1 + x_1)),  x_1 = -2/(2j+1)^2

    with x_1 from :func:`~drfsim.quantum_drf.multipole_spectrum`.  Grows like
    (ln 2 / 2) (2j+1)^2, i.e. quadratically in the frame size.  Requires
    2j >= 1.
    """
    return math.log(2.0) / (-math.log1p(multipole_spectrum(j).averaged[1]))


def default_n_max(j) -> int:
    """Sweep length reaching the decay plateau: ceil(5 * half_life)."""
    return math.ceil(5.0 * half_life(j))


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation; the defaults of every option
    not given on the command line.  ``out`` defaults to ``<command>.csv``."""

    command: str
    twice_j: list[int]
    n_max: int | None = None
    alpha: float | None = None
    seed: int = DEFAULT_SEED
    samples: int = 1000
    n_nodes: int | None = None
    out: Path | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not self.twice_j or min(self.twice_j) < 1:
            raise DomainError("twice_j values must be integers >= 1")
        if self.n_max is not None and self.n_max < 0:
            raise DomainError("n_max must be non-negative")
        if self.command == "trajectories" and self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.out is None:
            self.out = Path(f"{self.command}.csv")


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
        classical_fidelity_series(j, alpha, _resolve_n_max(config, j))
    )


def _columns_compare(config: RunConfig, j: SpinLabel):
    n_max = _resolve_n_max(config, j)
    alpha = config.alpha if config.alpha is not None else fitted_step(j)
    quantum = evolve(j, n_max)
    classical = classical_fidelity_series(j, alpha, n_max)
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
    lives = {tj: half_life(SpinLabel(tj)) for tj in js}
    ratios = [
        lives[tj] / lives[tj // 2] if tj // 2 in lives and tj % 2 == 0 else None
        for tj in js
    ]
    return [js, [lives[tj] for tj in js], ratios]


# -- formatting and output ----------------------------------------------------


_CSV_CHUNK_ROWS = 4096  # rows formatted at a time, bounding the memory alive

# Fast domain of the vectorised formatter.  A float cell there is +0.0 or
# CSV_FAST_MIN <= x < 10**15, whose '%.16e' is always 22 bytes,
# d.(16 digits)e±dd; an integer cell is 0 <= v < 10**8, right-aligned in
# 8 bytes after NUL pads that are stripped before the row is written.
_FLOAT_MAX = 1e15
_INT_END = 10**8
_SCALES = 118  # 10**k for k = 0 ... 117 covers 16 - floor(log10 x) over the domain
_SPLIT = float(2**27 + 1)  # Veltkamp split of a double into two 26-bit halves
_CELL_FIELDS = {  # kind -> (bytes, fields as (suffix, dtype, offset))
    "i": (8, (("a", "<u4", 0), ("b", "<u4", 4))),
    "f": (22, (("lead", "<u2", 0), ("a", "<u4", 2), ("b", "<u4", 6),
               ("c", "<u4", 10), ("d", "<u4", 14), ("exp", "<u4", 18))),
}


def _veltkamp(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


@functools.cache
def _digit_tables():
    """Tables of the vectorised formatter, built from exact integers.

    ``quad[v]`` is the four ASCII digits of v < 10**4 as one '<u4';
    ``tail[v]`` is the same with its leading zeros as NUL bytes (``tail[0]``
    keeps one '0') and ``head`` is ``tail`` with ``head[0]`` all NUL.
    ``lead[d]`` is 'd.' as '<u2'.  For k = 0 ... 117, ``expo[k]`` is 'e±dd'
    of the decimal exponent 16 - k, and 10**k = ``hi[k]`` + ``lo[k]`` to about
    2**-106 relative, with ``hi[k]`` split into halves for Dekker's product.
    """
    digit = np.arange(48, 58, dtype=np.uint8)
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # quad[a, b, c, d] = "abcd"
    for place in range(4):
        quad[..., place] = digit.reshape([10 if i == place else 1 for i in range(4)])
    quad = quad.reshape(10**4, 4)
    tail = quad.copy()
    for place, end in enumerate((1000, 100, 10)):
        tail[:end, place] = 0
    head = tail.copy()
    head[0] = 0
    lead = np.array([[48 + d, ord(".")] for d in range(10)], dtype=np.uint8)
    expo = np.array([[ord("e"), ord("-" if e < 0 else "+"), 48 + abs(e) // 10 % 10,
                      48 + abs(e) % 10] for e in range(16, 16 - _SCALES, -1)],
                    dtype=np.uint8)
    hi = np.array([float(10**k) for k in range(_SCALES)])
    lo = np.array([float(10**k - int(h)) for k, h in enumerate(hi)])
    hi_h, hi_l = _veltkamp(hi)

    def table(codes, dtype):
        return codes.view(dtype).ravel()

    return SimpleNamespace(quad=table(quad, "<u4"), tail=table(tail, "<u4"),
                           head=table(head, "<u4"), lead=table(lead, "<u2"),
                           expo=table(expo, "<u4"), hi=hi, hi_h=hi_h, hi_l=hi_l,
                           lo=lo)


def _float_cells(buf, name, column):
    """Write the 22 bytes of each float cell in the fast domain into ``buf``.

    The 17-digit significand is D = round(x 10**k), k = 16 - floor(log10 x),
    with x 10**k formed as a double-double: Dekker's exact product with
    ``hi[k]`` plus x ``lo[k]``.  Returns the mask of cells written; a cell
    whose D leaves [10**16, 10**17) or whose rounding fraction is within
    ``CSV_TIE_MARGIN`` of 1/2 is left to the ``%`` route.
    """
    t = _digit_tables()
    x = np.asarray(column, dtype=np.float64)
    zero = (x == 0) & ~np.signbit(x)
    inside = (x >= CSV_FAST_MIN) & (x < _FLOAT_MAX)
    x = np.where(inside, x, 1.0)
    k = 16 - np.floor(np.log10(x)).astype(np.intp)
    hi_h, hi_l = t.hi_h[k], t.hi_l[k]
    whole = x * t.hi[k]
    x_h, x_l = _veltkamp(x)
    low = ((x_h * hi_h - whole) + x_h * hi_l + x_l * hi_h) + x_l * hi_l
    low += x * t.lo[k]
    floor = np.floor(low)
    frac = low - floor
    digits = whole.astype(np.int64) + floor.astype(np.int64)
    ok = inside & (digits >= 10**16) & (np.abs(frac - 0.5) > CSV_TIE_MARGIN)
    digits += frac > 0.5
    ok &= digits < 10**17
    digits = np.where(ok, digits, 0)
    ok |= zero
    lead, body = np.divmod(digits, 10**16)
    upper, lower = np.divmod(body, 10**8)
    buf[name + "lead"] = t.lead[lead]
    for field, part in zip("abcd", (upper // 10**4, upper % 10**4,
                                    lower // 10**4, lower % 10**4)):
        buf[name + field] = t.quad[part]
    buf[name + "exp"] = t.expo[k]
    return ok


def _int_cells(buf, name, column):
    """Write each integer cell 0 <= v < 10**8 into ``buf``, right-aligned in
    8 bytes after NUL pads; returns the mask of cells written."""
    t = _digit_tables()
    ok = (column >= 0) & (column < _INT_END)
    v = np.where(ok, column, 0)
    upper, lower = np.divmod(v, 10**4)
    buf[name + "a"] = t.head[upper]
    buf[name + "b"] = np.where(upper > 0, t.quad[lower], t.tail[lower])
    return ok


def _row_dtype(kinds):
    """Row buffer: each cell, int (8 bytes) or float (22), then its separator."""
    names, formats, offsets = [], [], []
    offset = 0
    for i, kind in enumerate(kinds):
        size, fields = _CELL_FIELDS[kind]
        for suffix, fmt, at in fields:
            names.append(f"c{i}{suffix}")
            formats.append(fmt)
            offsets.append(offset + at)
        offset += size
        names.append(f"s{i}")
        formats.append("u1")
        offsets.append(offset)
        offset += 1
    return np.dtype({"names": names, "formats": formats, "offsets": offsets,
                     "itemsize": offset})


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _column_cells(column):
    """``%`` template and values of one column's cells: integers plainly,
    floats in scientific notation with 17 significant digits; a list column
    is formatted cell by cell by :func:`_format_cell` (None as an empty cell)."""
    if isinstance(column, np.ndarray):
        return ("%d" if column.dtype.kind in "iu" else "%.16e"), column.tolist()
    return "%s", [_format_cell(v) for v in column]


def _template_rows(columns) -> bytes:
    """The ``%`` route: one ``%`` of the row template repeated, over the
    cells in row order."""
    templates, cells = zip(*(_column_cells(c) for c in columns))
    line = ",".join(templates) + "\n"
    text = (line * len(cells[0])) % tuple(itertools.chain.from_iterable(zip(*cells)))
    return text.encode()


def _chunk_pieces(columns):
    """The bytes of one chunk of rows, in order.

    Rows whose cells all lie in the fast domain are formatted in numpy into
    one row buffer and written with its NUL pads stripped.  Every other row,
    and any chunk with a list column, goes through :func:`_template_rows`.
    """
    if not all(isinstance(c, np.ndarray) for c in columns):
        yield _template_rows(columns)
        return
    kinds = ["i" if c.dtype.kind in "iu" else "f" for c in columns]
    rows = len(columns[0])
    buf = np.empty(rows, _row_dtype(kinds))
    ok = np.ones(rows, dtype=bool)
    for i, (kind, column) in enumerate(zip(kinds, columns)):
        buf[f"s{i}"] = ord("\n") if i == len(columns) - 1 else ord(",")
        cells = _int_cells if kind == "i" else _float_cells
        ok &= cells(buf, f"c{i}", column)
    cuts = np.flatnonzero(ok[1:] != ok[:-1]) + 1
    for start, stop in itertools.pairwise([0, *cuts.tolist(), rows]):
        if ok[start]:
            raw = buf[start:stop].view(np.uint8)
            yield raw[raw != 0].tobytes()
        else:
            yield _template_rows([c[start:stop] for c in columns])


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header``, one line per row, in
    chunks of ``_CSV_CHUNK_ROWS`` rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            fh.writelines(_chunk_pieces([c[start:start + _CSV_CHUNK_ROWS]
                                         for c in columns]))


def _check_schema(path: Path, header):
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != ",".join(header):
        raise InternalConsistencyError(
            f"harness: {path} header {first!r} violates the column contract"
        )


def _output_paths(config: RunConfig) -> dict[int, Path]:
    """One CSV per swept 2j; a single value writes exactly to --out."""
    out = config.out
    if config.command == "scaling" or len(config.twice_j) == 1:
        return {config.twice_j[0]: out}
    return {
        tj: out.with_name(f"{out.stem}-2j{tj}{out.suffix or '.csv'}")
        for tj in config.twice_j
    }


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status.

    A library error or an unwritable output path is reported on stderr as
    ``error: <command>: ...`` with status 1.
    """
    started = time.perf_counter()
    try:
        paths = _output_paths(config)
        report = {}
        for tj in sorted(paths):
            key = (",".join(map(str, sorted(config.twice_j)))
                   if config.command == "scaling" else str(tj))
            report[key] = _run_size(config, tj, paths[tj])
        _write_manifest(config, [paths[tj] for tj in sorted(paths)], report,
                        time.perf_counter() - started)
    except (DrfsimError, OSError) as exc:
        print(f"error: {config.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_size(config: RunConfig, tj: int, path: Path) -> dict:
    """Build one size's columns and write its CSV; returns its report entry.

    The columns are dropped on return, so a sweep holds one size at a time.
    """
    header = HEADERS[config.command]
    tic = time.perf_counter()
    columns = (_scaling_columns(config) if config.command == "scaling"
               else COLUMN_BUILDERS[config.command](config, SpinLabel(tj)))
    build_s = time.perf_counter() - tic
    tic = time.perf_counter()
    _write_csv(path, header, columns)
    csv_s = time.perf_counter() - tic
    _check_schema(path, header)
    return {"build_s": build_s, "csv_s": csv_s, "csv_rows": len(columns[0]),
            "csv_bytes": path.stat().st_size}


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def _write_manifest(config: RunConfig, outputs, report, wall_time):
    """JSON record of the run; ``report`` holds, per 2j (for ``scaling``,
    per list of 2j), the seconds spent building the columns and writing the
    CSV and the CSV's rows and bytes."""
    payload = {
        "command": config.command,
        "config": {
            "twice_j": config.twice_j,
            "n_max": config.n_max,
            "alpha": config.alpha,
            "seed": config.seed,
            "samples": config.samples,
            "n_nodes": config.n_nodes,
            "out": str(config.out),
        },
        "library_version": __version__,
        "seed": config.seed,
        "wall_time_s": wall_time,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "columns": HEADERS[config.command],
        "report": report,
    }
    path = _manifest_path(config.out)
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


def _bounded_int(low, high=None, high_text=None):
    """argparse type: an integer with low <= value (< high, shown as
    ``high_text``)."""
    bound = f">= {low}" if high is None else f"in [{low}, {high_text or high})"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {value}")
        return value

    return parse


_SEED = _bounded_int(0, 2**64, "2**64")


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds only the options given: every default
    is ``argparse.SUPPRESS``, so :class:`RunConfig` supplies the defaults and
    a subcommand cannot overwrite an option given before it."""
    shared = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=_SEED, metavar="U64")
    shared.add_argument(
        "--selftest",
        action="store_true",
        help="run the structural invariant suites and exit",
    )
    parser = argparse.ArgumentParser(
        prog="drfsim",
        description="Directional-reference-frame degradation simulator.",
        parents=[shared],
    )
    common = argparse.ArgumentParser(add_help=False, parents=[shared],
                                     argument_default=argparse.SUPPRESS)
    common.add_argument(
        "--twice-j",
        type=_parse_twice_j,
        metavar="INT[,INT...]",
        help="frame size(s) as 2j; a comma list sweeps several sizes",
    )
    common.add_argument("--out", type=Path, metavar="PATH", help="CSV output path")
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *, n_max=True, alpha=False, samples=False,
            nodes=False):
        cmd = sub.add_parser(name, parents=[common], help=help_text,
                             argument_default=argparse.SUPPRESS)
        if n_max:
            cmd.add_argument("--n-max", type=_bounded_int(0), metavar="N",
                             help="steps to simulate (default: 5 half-lives)")
        if alpha:
            cmd.add_argument("--alpha", type=float, metavar="RAD",
                             help="walk step angle (default: fitted)")
        if samples:
            cmd.add_argument("--samples", type=_bounded_int(1), metavar="N")
        if nodes:
            cmd.add_argument("--nodes", dest="n_nodes", type=_bounded_int(1),
                             metavar="N", help="coherent grid size (default: 8(2j+1))")

    add("quantum-evolve", "iterate the measurement channel")
    add("classical-walk", "run the random walk on the sphere", alpha=True)
    add("compare", "quantum vs classical fidelity table", alpha=True)
    add("trajectories", "sample record-conditioned trajectories", samples=True)
    add("coherent-test", "non-negative fit residual per step", nodes=True)
    add("scaling", "half-life per frame size", n_max=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    if options.pop("selftest", False):
        _, failed = run_selftest(seed=options.get("seed", DEFAULT_SEED))
        return 0 if failed == 0 else 1
    if command is None:
        parser.print_usage(sys.stderr)
        return 2
    if "twice_j" not in options:
        parser.error(f"{command}: --twice-j is required")
    return run(RunConfig(command, **options))


if __name__ == "__main__":
    sys.exit(main())
