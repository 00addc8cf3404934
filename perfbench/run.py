"""drfsim benchmark: four workloads, end-to-end metrics, and a traced run per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload long-runs --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Every workload pass
runs in a fresh interpreter (``child.py``) as a closed loop from one
client, and every output is checked against closed forms computed by the
benchmark (``workloads.py``).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list each operation, the environment and every metric with
its unit, ``ops_failed_frac`` included.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: from the start of a child interpreter until
  ``import drfsim.cli`` returns; the median over passes, once the sources
  are compiled to bytecode.
* ``wall_s``: median over passes of the summed wall time of the
  workload's operations (checks excluded).
* ``peak_rss_mb``: median over passes of the child's ``ru_maxrss``.
* ``ops_ok_frac``: operations that succeeded / operations attempted.

``--seconds`` buys one pass per ``PASS_SECONDS[workload]``, at least one.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see ``tracing.py``): calls and self time per traced
function, work counts, CSV rows and bytes, the accuracy margin of each
check (observed error / bound; ``check.mc_z`` in standard errors), the
untraced pass's CPU time, the ``scipy.stats`` import time from
``-X importtime``, and the tracing overhead.  A metric whose layer the
workload does not reach reads 0.  Spans are kept in
``.bench_work/spans-<workload>-<seed>.json``.

``correct`` is false when an output the program produced breaks a check.
An operation on which the program exits non-zero counts as failed but not
as incorrect.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Seconds of measurement per pass.  A pass of long-runs or large-frames takes
# about 10 s with its set-up on a 2-core machine.  Records and oracles take
# 6-8 s and vary more from pass to pass, so they get four passes in 30 s.
PASS_SECONDS = {"long-runs": 10, "large-frames": 10, "records": 7.5, "oracles": 7.5}
DEADLINE_S = 170.0  # a run must end within 180 s
# Accuracy margin of each check: observed error / bound; the Monte-Carlo
# check reports its distance from the closed form in standard errors.
MARGINS = {
    "decay": ("check.decay_margin", "ratio"),
    "walk": ("check.walk_margin", "ratio"),
    "ring": ("check.ring_margin", "ratio"),
    "record_avg": ("check.record_avg_margin", "ratio"),
    "mc_z": ("check.mc_z", "se"),
}

# Per-layer metrics taken from the tracer: function -> fields reported for it.
LAYER_FIELDS = [
    ("angular_momentum.projector_element", ("calls", "self_s")),
    ("quantum_drf.build_kraus", ("calls", "self_s")),
    ("angular_momentum.coherent_populations", ("calls", "self_s")),
    ("coherent_analysis.build_grid", ("calls", "self_s")),
    ("coherent_analysis.nnls_solve", ("calls", "self_s")),
    ("coherent_analysis.convexity_test", ("self_s",)),
    ("quantum_drf.apply_map", ("calls", "self_s")),
    ("quantum_drf.evolve", ("calls", "self_s")),
    ("classical_walk.walk_evolve", ("calls", "self_s")),
    ("classical_walk.classical_fidelity_series", ("self_s",)),
    ("classical_walk.initial_spectrum", ("calls", "self_s")),
    ("quantum_drf.sample_fidelity_batch", ("calls", "self_s", "sample_steps")),
    ("quantum_drf.conditional_update", ("calls", "self_s")),
    ("classical_walk.ring_average", ("calls", "self_s", "ring_points")),
    ("selftest.run_selftest", ("self_s",)),
    ("cli.run", ("calls", "self_s")),
]


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- children --------------------------------------------------------------------


class Children:
    """Starts child interpreters one at a time, within one overall deadline."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(self, workload: str, trace: bool = False, importtime: bool = False) -> dict:
        xopts = ["-X", "importtime"] if importtime else []
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before starting the next pass")
        spawned = time.monotonic()
        argv = [sys.executable, *xopts, str(HERE / "child.py"), workload, str(self.seed),
                str(self.workdir), repr(spawned), "1" if trace else "0"]
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{workload} pass exceeded the {DEADLINE_S:.0f} s deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(
                f"child for {workload!r} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["stderr"] = proc.stderr
        return result


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output (0 if absent)."""
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*" + re.escape(module) + r"\s*$")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match:
            return int(match.group(1)) * 1e-6
    return 0.0


# -- environment ------------------------------------------------------------------


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 of the program's sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "drfsim").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int, first_pass: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": first_pass["python"],
        "numpy": first_pass["numpy"],
        "scipy": first_pass["scipy"],
        "blas_threads": first_pass["blas_threads"],
        "DRFSIM_THREADS": os.environ.get("DRFSIM_THREADS"),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


# -- metrics -----------------------------------------------------------------------


def op_counts(passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["status"] != "ok" for op in ops)
    incorrect = sum(op["status"] == "check" for op in ops)
    return len(ops), failed, incorrect


def end_to_end(passes):
    attempted, failed, _ = op_counts(passes)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "1"),
        "ops_failed_frac": (failed / attempted, "1"),
    }


def per_layer(base, traced):
    layers = traced["layers"]
    metrics = {}
    for function, fields in LAYER_FIELDS:
        stats = layers.get(function, {})
        for name in fields:
            key = name if name in ("calls", "self_s") else "work"
            metrics[f"{function}.{name}"] = (stats.get(key, 0), "s" if key == "self_s" else "count")
    # The CLI's own work also runs in pool threads, as cli.rows; the wait for
    # the pool (cli._sweep) is not work and is left out.
    rows_self = layers.get("cli.rows", {}).get("self_s", 0.0)
    metrics["cli.run.self_s"] = (metrics["cli.run.self_s"][0] + rows_self, "s")
    ops = traced["ops"]
    metrics["cli.csv_rows"] = (sum(op.get("csv_rows", 0) for op in ops), "count")
    metrics["cli.csv_bytes"] = (sum(op.get("csv_bytes", 0) for op in ops), "bytes")
    for key, (name, unit) in MARGINS.items():
        metrics[name] = (max(op.get("margins", {}).get(key, 0.0) for op in ops), unit)
    metrics["proc.cpu_s"] = (base["cpu_s"], "s")
    metrics["proc.import_scipy_stats_s"] = (import_seconds(traced["stderr"], "scipy.stats"), "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
    return metrics


def select(metrics: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, with units checked against it."""
    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise HarnessError(f"{entry['name']}: unit {unit!r}, BENCHMARK.json says "
                               f"{entry['unit']!r}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


# -- report ------------------------------------------------------------------------


def print_report(args, passes, env, metrics):
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trace {args.trace}")
    for i, op in enumerate(passes[0]["ops"]):
        times = [p["ops"][i]["seconds"] for p in passes]
        status = "ok" if op["status"] == "ok" else f"FAILED ({op['status']})"
        print(f"  {op['name']:<60} {statistics.median(times):8.3f} s  {status}"
              + (f"  {op['note']}" if op["note"] else ""))
    print("passes wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes)
          + "  setup_s " + " ".join(f"{p['setup_s']:.4f}" for p in passes))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "drfsim" / "__init__.py").is_file():
            raise HarnessError(f"no drfsim sources under {root / 'src'}; run from a checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            # Fill the bytecode cache first: a user compiles the sources once, not per run.
            if not compileall.compile_dir(root / "src" / "drfsim", quiet=1):
                raise HarnessError("the drfsim sources do not compile")
            children = Children(root, args.seed, workdir)
            if args.trace:
                base = children.run(args.workload)
                traced = children.run(args.workload, trace=True, importtime=True)
                passes = [base, traced]
                metrics = per_layer(base, traced)
                shutil.copy(traced["spans_file"], root / ".bench_work" /
                            f"spans-{args.workload}-{args.seed}.json")
                wanted = spec["per_layer"]
            else:
                count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
                passes = [children.run(args.workload) for _ in range(count)]
                metrics = end_to_end(passes)
                wanted = spec["end_to_end"]
            expected = (root / "src" / "drfsim" / "cli.py").resolve()
            if Path(passes[0]["drfsim_file"]).resolve() != expected:
                raise HarnessError(f"drfsim imported from {passes[0]['drfsim_file']}, "
                                   f"not {expected}")
            env = environment(root, args.seed, passes[0])
            result = select(metrics, wanted)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, incorrect = op_counts(passes)
    print_report(args, passes, env, metrics)
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
