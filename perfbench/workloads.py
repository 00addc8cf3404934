"""The four workloads and the closed-form checks of their outputs.

A workload is a fixed list of operations that one client runs as a closed
loop: an operation starts only after the one before it, and its check,
have finished.  An operation fails when the program exits non-zero or
raises (``ProgramFailed``), or when its output breaks a check
(``CheckFailed``).  Every reference value and bound is computed here, from
the paper's closed forms, and each bound is the package's acceptance value.

Why these workloads:

* ``long-runs``: many steps on small frames.  The per-step map, the walk
  series, CSV writing and the ``_sweep`` thread pool do the work; Kraus
  assembly and quadrature do almost none.
* ``large-frames``: big frames, few steps.  Construction does the work:
  Fraction-based CG/Kraus assembly, ``initial_spectrum`` quadrature, the
  coherent grid and NNLS; the per-step paths are idle.
* ``records``: record-conditioned samples.  Per-outcome weights act on a
  batch of states, where ``long-runs`` applies the averaged map to one
  state, so a change of weight representation that helps one use and
  slows the other shows.
* ``oracles``: the independent checks no CLI command reaches (the ring
  grid oracle, the selftest suites, exhaustive record averaging and the
  non-convexity fits).

Two operations fail at the time the benchmark was written and stay in:
``quantum-evolve`` at 2j = 200 (trace drift) and ``classical-walk`` at
2j = 1000 (quadrature error in c_1).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from drfsim import angular_momentum as am
from drfsim import classical_walk as cw
from drfsim import cli
from drfsim import coherent_analysis as ca
from drfsim import quantum_drf as qd
from drfsim import selftest

# Acceptance bounds.
CLOSED_FORM_TOL = 1e-10   # decay and walk columns vs the closed form
MC_Z_MAX = 4.0            # trajectory mean vs closed form, in standard errors
PRISTINE_RESIDUAL = 1e-10  # coherent fit residual at n = 0
EVOLVED_RESIDUAL = 1e-6    # coherent fit residual must exceed this at n >= 1
RING_TOL = 1e-7           # ring oracle vs P_l(cos alpha) P_l(cos theta)
RECORD_AVG_TOL = 1e-12    # record average vs the averaged map

# The CSV column contract of each command.
HEADERS = {
    "quantum-evolve": "n,F_Q_map,F_Q_closed,diff_map_closed",
    "classical-walk": "n,F_C,F_C_closed,diff",
    "compare": "n,F_Q_map,F_Q_closed,F_C,diff_QC,diff_map_closed",
    "trajectories": "sample,n_plus,F_conditional",
    "coherent-test": "n,residual,weight_sum_gap",
}
# Columns that must equal the closed-form fidelity, by kind of check.
DECAY_COLUMNS = {"quantum-evolve": (1, 2), "compare": (1, 2)}
WALK_COLUMNS = {"classical-walk": (1, 2), "compare": (3,)}

RING_GRID = 32768
RING_ALPHA = 0.5
RING_DEGREES = (1, 4, 8)


class ProgramFailed(Exception):
    """The program exited non-zero or raised."""


class CheckFailed(Exception):
    """The program's output broke a check."""


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` validates what it returned."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    csv_rows: int = 0
    csv_bytes: int = 0
    margins: dict = field(default_factory=dict)


# -- closed forms ---------------------------------------------------------------


def closed_fidelity(twice_j: int, n):
    """F(n) = 1/2 + [j/(2j+1)] (1 - 2/(2j+1)^2)^n."""
    q = twice_j + 1.0
    return 0.5 + twice_j / (2.0 * q) * np.exp(np.asarray(n) * math.log1p(-2.0 / q**2))


def default_steps(twice_j: int) -> int:
    """ceil(5 * half-life), with half-life ln 2 / -ln(1 - 2/(2j+1)^2)."""
    q = twice_j + 1.0
    return math.ceil(5.0 * math.log(2.0) / -math.log1p(-2.0 / q**2))


def legendre(ell: int, x):
    """P_l(x) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x
    if ell == 0:
        return prev
    for k in range(1, ell):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur


def averaged_map_exact(twice_j: int, steps: int):
    """Populations after ``steps`` uses from the aligned state, in exact rationals.

    The averaged channel is rho + (2/q^2)(J_z rho J_z + (J+ rho J- + J- rho J+)/2
    - j(j+1) rho), which keeps diagonal states diagonal.
    """
    j = Fraction(twice_j, 2)
    q2 = Fraction((twice_j + 1) ** 2)
    ms = [-j + k for k in range(twice_j + 1)]
    p = [Fraction(0)] * twice_j + [Fraction(1)]
    for _ in range(steps):
        new = []
        for k, m in enumerate(ms):
            acc = (m * m - j * (j + 1)) * p[k]
            if k > 0:
                acc += (j - m + 1) * (j + m) * p[k - 1] / 2
            if k < twice_j:
                acc += (j + m + 1) * (j - m) * p[k + 1] / 2
            new.append(p[k] + 2 * acc / q2)
        p = new
    return np.array([float(x) for x in p])


# -- CLI operations --------------------------------------------------------------


def _csv_paths(out: Path, twice_js) -> dict:
    """The CLI writes exactly --out for one 2j, else <stem>-2j<N>.csv per 2j."""
    if len(twice_js) == 1:
        return {twice_js[0]: out}
    return {tj: out.with_name(f"{out.stem}-2j{tj}.csv") for tj in twice_js}


def _read_csv(op: Op, path: Path, header: str) -> np.ndarray:
    if not path.exists():
        raise CheckFailed(f"{path.name} was not written")
    op.csv_bytes += path.stat().st_size
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise CheckFailed(f"{path.name}: header {first!r}, expected {header!r}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    op.csv_rows += len(table)
    return table


def _require_steps(table, n_max, name):
    if len(table) != n_max + 1 or np.any(table[:, 0] != np.arange(n_max + 1)):
        raise CheckFailed(f"{name}: {len(table)} rows, expected n = 0..{n_max}")


def _check_fidelity_columns(op, table, command, twice_j, name):
    expected = closed_fidelity(twice_j, table[:, 0])
    for key, columns in (("decay", DECAY_COLUMNS), ("walk", WALK_COLUMNS)):
        if command not in columns:
            continue
        err = float(np.max(np.abs(table[:, list(columns[command])] - expected[:, None])))
        if not err <= CLOSED_FORM_TOL:
            raise CheckFailed(f"{name}: {key} error {err:.3e} > {CLOSED_FORM_TOL:g}")
        op.margins[key] = max(op.margins.get(key, 0.0), err / CLOSED_FORM_TOL)


def _check_trajectories(op, table, twice_j, samples, name):
    n_max = default_steps(twice_j)
    if len(table) != samples or np.any(table[:, 0] != np.arange(samples)):
        raise CheckFailed(f"{name}: {len(table)} rows, expected {samples}")
    n_plus, fid = table[:, 1], table[:, 2]
    if n_plus.min() < 0 or n_plus.max() > n_max:
        raise CheckFailed(f"{name}: n_plus outside [0, {n_max}]")
    if fid.min() < 0.5 or fid.max() > 1.0:
        raise CheckFailed(f"{name}: F outside [1/2, 1]: [{fid.min()}, {fid.max()}]")
    target = float(closed_fidelity(twice_j, n_max))
    stderr = fid.std(ddof=1) / math.sqrt(samples)
    z = abs(fid.mean() - target) / stderr if stderr > 0 else math.inf
    if not z <= MC_Z_MAX:
        raise CheckFailed(f"{name}: mean {fid.mean():.6f} is {z:.2f} se from {target:.6f}")
    op.margins["mc_z"] = max(op.margins.get("mc_z", 0.0), z)


def _check_coherent(table, n_max, name):
    _require_steps(table, n_max, name)
    residual = table[:, 1]
    if not residual[0] <= PRISTINE_RESIDUAL:
        raise CheckFailed(f"{name}: residual {residual[0]:.3e} at n = 0")
    if n_max and not residual[1:].min() > EVOLVED_RESIDUAL:
        raise CheckFailed(f"{name}: residual {residual[1:].min():.3e} at n >= 1")


def cli_op(workdir: Path, command: str, twice_js, n_max=None, **options) -> Op:
    """One ``drfsim`` command, run in-process through ``drfsim.cli.main``."""
    out = workdir / f"{command}.csv"
    argv = [command, "--twice-j", ",".join(map(str, twice_js)), "--out", str(out)]
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    name = " ".join(argv[:3] + argv[5:])

    def call():
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors):
            status = cli.main(argv)
        return status, errors.getvalue().strip()

    def check(result):
        status, errors = result
        if status != 0:
            raise ProgramFailed(f"exit {status}: {errors.splitlines()[-1] if errors else ''}")
        for tj, path in _csv_paths(out, twice_js).items():
            table = _read_csv(op, path, HEADERS[command])
            label = f"{command} 2j={tj}"
            if command == "trajectories":
                _check_trajectories(op, table, tj, options["samples"], label)
            elif command == "coherent-test":
                _check_coherent(table, 8 if n_max is None else n_max, label)
            else:
                _require_steps(table, default_steps(tj) if n_max is None else n_max, label)
                _check_fidelity_columns(op, table, command, tj, label)
            path.unlink()
        return op.margins

    op = Op(name, call, check)  # ``check`` records CSV counts and margins on it
    return op


# -- oracle operations -------------------------------------------------------------


def ring_op(ell: int) -> Op:
    thetas = np.linspace(0.0, math.pi, RING_GRID)
    values = legendre(ell, np.cos(thetas))
    expected = float(legendre(ell, math.cos(RING_ALPHA))) * values

    def check(averaged):
        err = float(np.max(np.abs(averaged - expected)))
        if not err <= RING_TOL:
            raise CheckFailed(f"ring l={ell}: error {err:.3e} > {RING_TOL:g}")
        return {"ring": err / RING_TOL}

    return Op(f"ring_average l={ell} alpha={RING_ALPHA}",
              lambda: cw.ring_average(thetas, values, RING_ALPHA), check)


def selftest_op(seed: int) -> Op:
    def check(counts):
        passed, failed = counts
        if failed or not passed:
            raise CheckFailed(f"selftest: {passed} passed, {failed} failed")
        return {}

    return Op(f"run_selftest seed={seed}",
              lambda: selftest.run_selftest(seed, stream=io.StringIO()), check)


def record_average_op(twice_j: int, max_steps: int = 6) -> Op:
    """Average over every record of up to ``max_steps`` outcomes."""

    def call():
        j = am.SpinLabel(twice_j)
        kraus = qd.build_kraus(j)
        averages = {}
        for n in range(1, max_steps + 1):
            acc = np.zeros(j.dim)
            for outcomes in itertools.product((+1, -1), repeat=n):
                state = qd.FrameState.stretched(j)
                weight = 1.0
                for outcome in outcomes:
                    prob, state = qd.conditional_update(state, kraus, outcome)
                    weight *= prob
                acc += weight * state.populations
            averages[n] = acc
        return averages

    def check(averages):
        err = max(float(np.max(np.abs(avg - averaged_map_exact(twice_j, n))))
                  for n, avg in averages.items())
        if not err <= RECORD_AVG_TOL:
            raise CheckFailed(f"record average 2j={twice_j}: error {err:.3e}")
        return {"record_avg": err / RECORD_AVG_TOL}

    return Op(f"record average 2j={twice_j} n<={max_steps}", call, check)


def convexity_op(twice_j: int) -> Op:
    nodes = 8 * (twice_j + 1)

    def call():
        j = am.SpinLabel(twice_j)
        return (ca.convexity_test(j, 0, nodes), ca.convexity_test(j, 1, nodes),
                ca.convexity_test(j, 1, 2 * nodes))

    def check(results):
        pristine, evolved, doubled = (r.residual for r in results)
        if not pristine <= PRISTINE_RESIDUAL:
            raise CheckFailed(f"convexity 2j={twice_j}: residual {pristine:.3e} at n = 0")
        if not evolved > EVOLVED_RESIDUAL:
            raise CheckFailed(f"convexity 2j={twice_j}: residual {evolved:.3e} at n = 1")
        if not abs(doubled - evolved) < 0.1 * evolved:
            raise CheckFailed(f"convexity 2j={twice_j}: residual moves under grid doubling")
        return {}

    return Op(f"convexity_test 2j={twice_j} nodes={nodes},{2 * nodes}", call, check)


# -- workloads ---------------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path) -> list:
    """The operations of ``workload``; ``seed`` reaches every seeded input."""
    if workload == "long-runs":
        return [cli_op(workdir, "compare", [40, 80, 120]),
                cli_op(workdir, "quantum-evolve", [200])]
    if workload == "large-frames":
        return [cli_op(workdir, "quantum-evolve", [1000], n_max=1000),
                cli_op(workdir, "classical-walk", [400], n_max=100),
                cli_op(workdir, "classical-walk", [1000], n_max=100),
                cli_op(workdir, "coherent-test", [80, 160])]
    if workload == "records":
        return [cli_op(workdir, "trajectories", [20, 40], samples=2000, seed=seed)]
    if workload == "oracles":
        return ([ring_op(ell) for ell in RING_DEGREES]
                + [selftest_op(seed)]
                + [record_average_op(tj) for tj in range(1, 5)]
                + [convexity_op(tj) for tj in (2, 4, 8)])
    raise ValueError(f"unknown workload {workload!r}")

