"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR SPAWNED TRACE

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this interpreter; set-up time runs from there until ``import drfsim.cli``
returns.  The result, with where the program came from and the versions
it ran with, is one JSON object on the last line of stdout.
"""

import sys
import time

spawned = float(sys.argv[4])
import drfsim.cli  # noqa: E402  (the timed set-up)

setup_s = time.monotonic() - spawned

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, seed, workdir, trace):
    import tracing
    import workloads

    ops = workloads.build(workload, seed, workdir)
    tracer = tracing.Tracer().install() if trace else None
    records = []
    cpu0 = cpu_seconds()
    for op in ops:
        record = {"name": op.name, "status": "ok", "note": ""}
        started = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crash is a failed operation, not a failed run
            record["seconds"] = perf_counter() - started
            record["status"] = "program"
            record["note"] = f"{type(exc).__name__}: {exc}"
            records.append(record)
            continue
        record["seconds"] = perf_counter() - started
        try:
            record["margins"] = op.check(result)
        except workloads.ProgramFailed as exc:
            record["status"], record["note"] = "program", str(exc)
        except workloads.CheckFailed as exc:
            record["status"], record["note"] = "check", str(exc)
        record["csv_rows"], record["csv_bytes"] = op.csv_rows, op.csv_bytes
        records.append(record)
    cpu_s = cpu_seconds() - cpu0
    out = {
        "setup_s": setup_s,
        "drfsim_file": drfsim.cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "wall_s": sum(r["seconds"] for r in records),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.stats()
        spans = workdir / "spans.json"
        tracer.write_spans(spans)
        out["spans_file"] = str(spans)
    return out


def main():
    workload, seed, workdir, trace = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[5]
    print(json.dumps(run_pass(workload, seed, workdir, trace == "1")))


if __name__ == "__main__":
    main()
