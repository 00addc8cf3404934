"""Command-line front end: sweeps, comparison tables, and CSV/JSON artifacts.

Each command is one entry of :data:`COMMANDS`: its help line, CSV header,
options and column builder.  ``--seed`` and ``--selftest`` may come before
or after the command; ``--selftest`` runs the structural invariant suites
with that seed instead.  Sweeps over several 2j values build and write one
size after another, one CSV per 2j so every file keeps its fixed column
schema (``scaling`` puts all its sizes in one table).  Each CSV and the
manifest are written under a temporary name beside the output, opened
before the columns are built and moved onto the output name once written;
a failed build or write, or SIGTERM during the run, removes it.  So a
failure at a later size leaves the earlier CSVs and writes no manifest, and
a killed run leaves no partial file.

Each command builds its table as columns of arrays; floats are written in
scientific notation with 17 significant digits so they round-trip exactly,
byte for byte as ``'%.16e'`` writes them.  A chunk of rows whose cells all
lie in the fast domain (integers in [0, 10**8); floats that are +0.0 or in
[1e-99, 1e15), with a significand rounded from a double-double product
with 10**k that is not within ``CSV_TIE_MARGIN`` of a decimal tie) is
formatted in numpy as one ``(rows, width)`` byte matrix: a template row
holds the ``.``, ``,`` and newline bytes, and each cell's digits and
exponent are copied in from digit tables four bytes at a time; the NUL
pads in front of short integers are left out, in runs of rows when the
first column is the only integer column.  Any other chunk, and the list
columns of ``scaling``, is formatted cell by cell.  Of the 2 009 187 array
rows the commands write at their defaults for 2j in {1, 2, 3, 7, 20, 99,
200}, and for 2j = 1000 by three of them, 3 take that route, one per
series table at 2j = 3.  The JSON manifest reports, per 2j, the seconds
spent building the columns and writing the CSV, and the CSV's rows and
bytes; ``csv_bytes`` is the writer's own count of the bytes it wrote, so a
table is opened once.

``trajectories`` seeds its generator with ``[seed, 2j]`` and draws one
uniform per sample: ``n_plus`` inverts the exact Binomial(n_max, p+) law of
the count of +1 outcomes, p+ = (j+1)/(2j+1), at it.  ``F_conditional`` is the
closed form F_K at the count K = ``n_plus``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import os
import signal
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from .classical_walk import classical_fidelity_series
from .coherent_analysis import convexity_series
from .errors import DomainError, DrfsimError, _check_count, _check_polar, _real
from .quantum_drf import evolve, sample_fidelity_batch
from .selftest import DEFAULT_SEED, run_selftest
from .spectrum import default_n_max, fitted_step, half_life
from .tolerances import CSV_FAST_MIN, CSV_TIE_MARGIN

__all__ = ["RunConfig", "run", "main", "HEADERS"]


# -- per-command column builders (pure functions of the config) ---------------


def _n_max(config: RunConfig, twice_j: int) -> int:
    return config.n_max if config.n_max is not None else default_n_max(twice_j)


def _abs_diff(a, b):
    """|a - b| in one new array."""
    diff = np.subtract(a, b)
    return np.abs(diff, out=diff)


def _series_columns(fidelity, closed):
    return [np.arange(len(fidelity)), fidelity, closed, _abs_diff(fidelity, closed)]


def _columns_quantum(config: RunConfig, twice_j: int):
    return _series_columns(*evolve(twice_j, _n_max(config, twice_j)))


def _columns_classical(config: RunConfig, twice_j: int):
    alpha = config.alpha if config.alpha is not None else fitted_step(twice_j)
    return _series_columns(*classical_fidelity_series(twice_j, alpha, _n_max(config, twice_j)))


def _columns_compare(config: RunConfig, twice_j: int):
    n_max = _n_max(config, twice_j)
    alpha = config.alpha if config.alpha is not None else fitted_step(twice_j)
    f_q, closed = evolve(twice_j, n_max)
    f_c = classical_fidelity_series(twice_j, alpha, n_max)[0]  # its closed form is freed
    return [np.arange(n_max + 1), f_q, closed, f_c,
            _abs_diff(f_c, f_q), _abs_diff(f_q, closed)]


def _columns_trajectories(config: RunConfig, twice_j: int):
    fidelities, plus_counts = sample_fidelity_batch(
        twice_j, _n_max(config, twice_j), config.samples, [config.seed, twice_j])
    return [np.arange(config.samples), plus_counts, fidelities]


def _columns_coherent(config: RunConfig, twice_j: int):
    n_max = config.n_max if config.n_max is not None else 8
    n_nodes = config.n_nodes if config.n_nodes is not None else 8 * (twice_j + 1)
    # the step column comes first: a size no array can hold then fails
    # before any fit, as it does for quantum-evolve
    steps = np.arange(n_max + 1)
    results = convexity_series(twice_j, n_max, n_nodes)
    return [steps,
            np.array([r.residual for r in results]),
            np.array([r.weight_sum_gap for r in results])]


def _columns_scaling(config: RunConfig, *js: int):
    lives = {tj: half_life(tj) for tj in js}
    ratios = [lives[tj] / lives[tj // 2] if tj // 2 in lives and tj % 2 == 0 else None
              for tj in js]
    return [list(js), [lives[tj] for tj in js], ratios]


@dataclasses.dataclass(frozen=True)
class Command:
    """A command's help line, CSV header, :class:`RunConfig` fields besides
    ``twice_j``, ``seed`` and ``out``, ``build(config, *js)``, its CSV columns for
    one 2j (for ``scaling``, every 2j at once), and the ``--n-max`` default it applies."""

    help: str
    header: list[str]
    options: tuple[str, ...]
    build: Callable
    steps: str = "5 half-lives"


COMMANDS = {
    "quantum-evolve": Command(
        "iterate the measurement channel",
        ["n", "F_Q_map", "F_Q_closed", "diff_map_closed"],
        ("n_max",), _columns_quantum),
    "classical-walk": Command(
        "run the random walk on the sphere",
        ["n", "F_C", "F_C_closed", "diff"],
        ("n_max", "alpha"), _columns_classical),
    "compare": Command(
        "quantum vs classical fidelity table",
        ["n", "F_Q_map", "F_Q_closed", "F_C", "diff_QC", "diff_map_closed"],
        ("n_max", "alpha"), _columns_compare),
    "trajectories": Command(
        "sample record-conditioned trajectories",
        ["sample", "n_plus", "F_conditional"],
        ("n_max", "samples"), _columns_trajectories),
    "coherent-test": Command(
        "non-negative fit residual per step",
        ["n", "residual", "weight_sum_gap"],
        ("n_max", "n_nodes"), _columns_coherent, steps="8"),
    "scaling": Command(
        "half-life per frame size",
        ["twice_j", "half_life", "ratio_to_half"],
        (), _columns_scaling),
}

HEADERS = {name: command.header for name, command in COMMANDS.items()}

# Integer settings: least value, and the bits of the range (--seed is a U64).
# A size stops below 2**60: 2**60 float64 values are 2**63 bytes, more than
# any numpy array can hold, so no such run could allocate its first column.
_BOUNDS = {"twice_j": (1, 60), "n_max": (0, 60), "samples": (1, 60),
           "n_nodes": (1, 60), "seed": (0, 64)}


def _check_option(name: str, value):
    """``value`` if it is within the bounds of setting ``name`` (an integer
    of :data:`_BOUNDS`, or ``alpha`` in [0, pi] as the walk requires);
    otherwise a :class:`DomainError` naming it (NaN included)."""
    if name == "alpha":
        return _check_polar(name, _real(name, value))
    low, bits = _BOUNDS[name]
    count = _check_count(name, value, low)
    if not count < 2**bits:
        raise DomainError(f"{name} must be an integer in [{low}, 2**{bits}), got {value!r}")
    return count


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one CLI invocation; the defaults of every option
    not given on the command line.  ``twice_j`` holds the distinct sizes in
    ascending order; ``out`` defaults to ``<command>.csv``."""

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
        if not isinstance(self.twice_j, (list, tuple)):
            raise DomainError(f"twice_j must be a list or tuple of sizes, got {self.twice_j!r}")
        if not self.twice_j:
            raise DomainError("twice_j must list at least one size")
        self.twice_j = sorted({_check_option("twice_j", tj) for tj in self.twice_j})
        for name in ("n_max", "alpha", "seed", "samples", "n_nodes"):
            if getattr(self, name) is not None:
                setattr(self, name, _check_option(name, getattr(self, name)))
        if not isinstance(self.out, (str, os.PathLike, type(None))):
            raise DomainError(f"out must be a str or a path, got {self.out!r}")
        self.out = Path(f"{self.command}.csv" if self.out is None else self.out)


# -- formatting and output ----------------------------------------------------


_CSV_CHUNK_ROWS = 4096  # rows formatted at a time, bounding the memory alive

# Fast domain of the vectorised formatter.  A float cell there is +0.0 or
# CSV_FAST_MIN <= x < 10**15, whose '%.16e' is always 22 bytes,
# d.(16 digits)e±dd; an integer cell is 0 <= v < 10**8, right-aligned in
# 8 bytes after NUL pads that are left out when the row is written.
_FLOAT_MAX = 1e15
_INT_END = 10**8
_SCALES = 118  # 10**k for k = 0 ... 117 covers 16 - floor(log10 x) over the domain
_SPLIT = float(2**27 + 1)  # Veltkamp split of a double into two 26-bit halves


def _veltkamp(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


@functools.cache
def _digit_tables():
    """Tables of the vectorised formatter, built from exact integers.

    ``quad[v]`` is the four ASCII digits of v < 10**4 as one '<u4';
    ``tail[v]`` is the same with its leading zeros as NUL bytes (``tail[0]``
    keeps one '0') and ``head`` is ``tail`` with ``head[0]`` all NUL.  For
    k = 0 ... 117, ``expo[k]`` is 'e±dd' of the decimal exponent 16 - k, and
    10**k = ``hi[k]`` + ``lo[k]`` to about 2**-106 relative, with ``hi[k]``
    split into halves for Dekker's product.
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
    expo = np.array([[ord("e"), ord("-" if e < 0 else "+"), 48 + abs(e) // 10 % 10,
                      48 + abs(e) % 10] for e in range(16, 16 - _SCALES, -1)],
                    dtype=np.uint8)
    hi = np.array([float(10**k) for k in range(_SCALES)])
    lo = np.array([float(10**k - int(h)) for k, h in enumerate(hi)])
    hi_h, hi_l = _veltkamp(hi)
    return SimpleNamespace(quad=quad.view("<u4").ravel(), tail=tail.view("<u4").ravel(),
                           head=head.view("<u4").ravel(), expo=expo.view("<u4").ravel(),
                           hi=hi, hi_h=hi_h, hi_l=hi_l, lo=lo)


def _split(a, c):
    """``a // c`` and ``a % c`` by one floor division, faster than ``np.divmod``."""
    q = a // c
    return q, a - q * c


def _put(matrix, at, codes):
    """Copy one '<u4' of ``codes`` per row into bytes at ... at + 3 of ``matrix``."""
    matrix[:, at:at + 4].view("<u4")[:, 0] = codes


def _float_cells(matrix, at, column):
    """Write the 22 bytes of each float cell in the fast domain into the
    byte matrix, from column ``at`` on.

    The 17-digit significand is D = round(x 10**k), k = 16 - floor(log10 x),
    with x 10**k formed as a double-double: Dekker's exact product with
    ``hi[k]`` plus x ``lo[k]``.  Returns the mask of cells written; a cell
    whose D leaves [10**16, 10**17) or whose rounding fraction is within
    ``CSV_TIE_MARGIN`` of 1/2 sends its chunk to :func:`_format_cell`.
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
    lead, body = _split(digits, 10**16)
    upper, lower = _split(body, 10**8)
    matrix[:, at] = 48 + lead  # the '.' after it is the template's
    for place, part in zip(range(at + 2, at + 18, 4), (*_split(upper, 10**4),
                                                         *_split(lower, 10**4))):
        _put(matrix, place, t.quad[part])
    _put(matrix, at + 18, t.expo[k])
    return ok


def _int_cells(matrix, at, column):
    """Write each integer cell 0 <= v < 10**8 into bytes ``at`` ... ``at`` + 7
    of the byte matrix, right-aligned after NUL pads; returns the mask of
    cells written."""
    t = _digit_tables()
    ok = (column >= 0) & (column < _INT_END)
    v = np.where(ok, column, 0)
    upper, lower = _split(v, 10**4)
    _put(matrix, at, t.head[upper])
    _put(matrix, at + 4, np.where(upper > 0, t.quad[lower], t.tail[lower]))
    return ok


# Kind of column -> template bytes of its cell, and the writer of its digits.
_CELLS = {"i": (b"\0" * 8, _int_cells), "f": (b"0.0000000000000000e+00", _float_cells)}


def _format_cell(value) -> str:
    """One cell of the per-cell route: an integer plainly, a float as
    ``'%.16e'`` writes it, None as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _chunk_bytes(columns) -> bytes:
    """The bytes of one chunk of rows.

    If every column is an array and every cell lies in the fast domain, the
    chunk is formatted in numpy into one byte matrix, a copy of the template
    row per row, and written without its NUL pads: from the first byte after
    them, in runs of rows with equal pads, when the first column is the only
    integer column (so every pad leads its row), and otherwise by stripping
    every NUL byte.  Any other chunk (a list column, or a cell outside the
    fast domain or near a decimal tie) is formatted cell by cell by
    :func:`_format_cell`.
    """
    if all(isinstance(c, np.ndarray) for c in columns):
        kinds = ["i" if c.dtype.kind in "iu" else "f" for c in columns]
        cells = [_CELLS[kind] for kind in kinds]
        template = np.frombuffer(b",".join(t for t, _ in cells) + b"\n", dtype=np.uint8)
        matrix = np.tile(template, (len(columns[0]), 1))
        at = 0
        for (cell, write), column in zip(cells, columns):
            if not write(matrix, at, column).all():
                break
            at += len(cell) + 1
        else:
            if kinds[0] != "i" or "i" in kinds[1:]:
                raw = matrix.ravel()
                return raw[raw != 0].tobytes()
            width = len(cells[0][0])
            pads = width - 1 - np.searchsorted(10 ** np.arange(1, width), columns[0], "right")
            starts = np.flatnonzero(np.diff(pads, prepend=-1))
            return b"".join(matrix[a:b, pad:].tobytes() for a, b, pad
                            in zip(starts, [*starts[1:], len(matrix)], pads[starts]))
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "".join(",".join(map(_format_cell, row)) + "\n" for row in rows).encode()


def _write_csv(fh, header, columns) -> int:
    """Write equal-length ``columns`` under ``header`` to the binary file
    ``fh``, one line per row, in chunks of ``_CSV_CHUNK_ROWS`` rows; returns
    the bytes written."""
    size = fh.write((",".join(header) + "\n").encode())
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        size += fh.write(_chunk_bytes([c[start:start + _CSV_CHUNK_ROWS] for c in columns]))
    return size


def _tables(config: RunConfig) -> list[tuple[list[int], Path]]:
    """The 2j values and CSV path of each table of the run, in the order
    written: ``scaling`` or a single size writes one table exactly to --out,
    a sweep one table per 2j at ``<out>-2j<K>.csv``."""
    out, js = config.out, config.twice_j
    if config.command == "scaling" or len(js) == 1:
        return [(js, out)]
    return [([tj], out.with_name(f"{out.stem}-2j{tj}{out.suffix or '.csv'}"))
            for tj in js]


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status.

    A library error, an unwritable output path, a failed allocation or a size
    past numpy's array limit is reported on stderr as ``error: <command>: ...``, status 1.
    A failed allocation, or numpy's refusal of a size, also names the 2j of its table.
    """
    started = time.perf_counter()
    sizes = None
    try:
        tables = _tables(config)
        report = {}
        for js, path in tables:
            sizes = ",".join(map(str, js))
            report[sizes] = _run_size(config, js, path)
        _write_manifest(config, [path for _, path in tables], report,
                        time.perf_counter() - started)
    except (DrfsimError, OSError, MemoryError, ValueError) as exc:
        # a package error names its 2j and an OSError its path already
        named = sizes is None or isinstance(exc, (DrfsimError, OSError))
        where = "" if named else f"2j={sizes}: "
        print(f"error: {config.command}: {where}{str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1
    return 0


@contextlib.contextmanager
def _replacing(path: Path, mode: str = "wb", **kwargs):
    """A file opened under a temporary name beside ``path``, unique to the
    process, that replaces ``path`` when the block succeeds and is removed
    when it raises, so a failed or killed run leaves no file at ``path``.
    A ``path`` that is a directory is refused before the block runs."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _run_size(config: RunConfig, js: list[int], path: Path) -> dict:
    """Open one table's CSV, then build and write its columns; returns its
    report entry.  The columns are dropped on return, so a sweep holds one
    size at a time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path) as fh:
        tic = time.perf_counter()
        columns = COMMANDS[config.command].build(config, *js)
        build_s = time.perf_counter() - tic
        tic = time.perf_counter()
        csv_bytes = _write_csv(fh, HEADERS[config.command], columns)
        csv_s = time.perf_counter() - tic
    return {"build_s": build_s, "csv_s": csv_s, "csv_rows": len(columns[0]),
            "csv_bytes": csv_bytes}


def _write_manifest(config: RunConfig, outputs, report, wall_time):
    """JSON record of the run; ``report`` holds, per 2j (for ``scaling``,
    per list of 2j), the seconds spent building the columns and writing the
    CSV and the CSV's rows and bytes."""
    payload = {
        "command": config.command,
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k != "command"},
        "library_version": __version__,
        "seed": config.seed,
        "wall_time_s": wall_time,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "columns": HEADERS[config.command],
        "report": report,
    }
    path = config.out.with_name(config.out.stem + ".manifest.json")  # beside the CSVs
    with _replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# -- argument parsing ----------------------------------------------------------


def _option_type(name: str, cast: type = int):
    """argparse type of an option, checked by :func:`_check_option`."""

    def parse(text: str):
        try:
            return _check_option(name, cast(text))
        except ValueError as exc:  # cast or the bound: DomainError is a ValueError
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _parse_twice_j(text: str) -> list[int]:
    values = [_option_type("twice_j")(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    return values


# Options of a command: RunConfig field -> (flag, argparse keywords).
_OPTIONS = {
    "twice_j": ("--twice-j", dict(metavar="INT[,INT...]", type=_parse_twice_j, help=(
        "frame size(s) as 2j; a comma list sweeps several sizes"))),
    "out": ("--out", dict(metavar="PATH", type=Path, help="CSV output path")),
    "n_max": ("--n-max", dict(metavar="N", type=_option_type("n_max"))),
    "alpha": ("--alpha", dict(metavar="RAD", type=_option_type("alpha", float),
                              help="walk step angle (default: fitted)")),
    "samples": ("--samples", dict(metavar="N", type=_option_type("samples"))),
    "n_nodes": ("--nodes", dict(metavar="N", type=_option_type("n_nodes"),
                                help="coherent grid size (default: 8(2j+1))")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds only the options given: every default
    is ``argparse.SUPPRESS``, so :class:`RunConfig` supplies the defaults and
    a subcommand cannot overwrite an option given before it."""
    shared = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=_option_type("seed"), metavar="U64")
    shared.add_argument("--selftest", action="store_true",
                        help="run the structural invariant suites and exit")
    parser = argparse.ArgumentParser(
        prog="drfsim",
        description="Directional-reference-frame degradation simulator.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[shared], help=command.help,
                             argument_default=argparse.SUPPRESS)
        for field in ("twice_j", "out", *command.options):
            flag, keywords = _OPTIONS[field]
            if field == "n_max":
                keywords = dict(keywords, help=f"steps to simulate (default: {command.steps})")
            cmd.add_argument(flag, dest=field, **keywords)
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
    config = RunConfig(command, **options)
    if threading.current_thread() is not threading.main_thread():
        return run(config)  # only the main thread may handle a signal
    # SIGTERM raises SystemExit during the run, so the output in progress is removed
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(config)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())
