"""Per-layer tracing of drfsim, done from outside the program.

The tracer replaces chosen public functions of each ``drfsim`` module with
timing wrappers.  A name is patched in every ``drfsim`` namespace that
holds it (``drfsim.cli.evolve``, ``drfsim.coherent_analysis.apply_map``,
the package re-exports), so calls through any import path are seen.

Coarse calls become spans; per-step calls only feed aggregate counters
(calls, total time, self time), because recording a span for each of
~10^5 map steps would cost more than the step.  Each thread keeps its own
stack of open calls: ``drfsim.cli._sweep`` runs row builders on a thread
pool, and a span in a worker thread must not nest under a span of another
thread.  Self time is a call's duration minus the time its traced children
*in the same thread* cover.  It is wall time, so in pool threads it
includes waiting for the interpreter lock, and self times summed over
threads can exceed the workload's wall time.  ``cli._sweep`` is wrapped
too: its own time is the wait for the pool, and each job runs under a
``cli.rows`` span in the thread that builds the rows.  Spans stay in
memory and are written out only after the workload has ended.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

# Coarse calls: one span each.
SPANS = {
    "cli": ("run",),
    "quantum_drf": ("evolve", "build_kraus", "sample_fidelity_batch"),
    "classical_walk": ("classical_fidelity_series", "initial_spectrum", "ring_average"),
    "coherent_analysis": ("build_grid", "nnls_solve", "convexity_test"),
    "selftest": ("run_selftest",),
}

# Per-step calls: aggregate counters only.
COUNTERS = {
    "angular_momentum": ("projector_element", "coherent_populations"),
    "quantum_drf": ("apply_map", "conditional_update"),
    "classical_walk": ("walk_evolve",),
}

# Work counts taken from a call's arguments: name -> (counter, arguments -> count).
WORK = {
    "classical_walk.ring_average": (
        "ring_points", lambda a: len(a["thetas"]) * a["n_psi"]),
    "quantum_drf.sample_fidelity_batch": (
        "sample_steps", lambda a: a["n_max"] * a["n_samples"]),
}


class Tracer:
    """Wraps drfsim functions and accumulates per-thread call statistics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats = []  # one dict per thread: name -> [calls, total_s, self_s, work]
        self._ids = itertools.count()
        self._main_stack = None
        self._patched = []  # (module, attribute, original)
        self.spans = []

    # -- per-thread state -----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            with self._lock:
                self._thread_stats.append(local.stats)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = local.stack
        return local.stack, local.stats

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, span: bool):
        """Return ``fn`` wrapped so that its calls are recorded under ``name``."""
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._state()
            span_id = next(self._ids) if span else None
            # frame: [start, time covered by same-thread children, span id]
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if work:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    entry[3] += int(work[1](bound.arguments))
                if span:
                    self.spans.append({
                        "id": span_id,
                        "name": name,
                        "thread": threading.get_ident(),
                        "start": frame[0],
                        "end": end,
                        "self": duration - frame[1],
                        "parent": self._cause(stack),
                    })

        return traced

    def _cause(self, stack):
        """Innermost open span of this thread, else of the main thread."""
        for source in (stack, self._main_stack or []):
            for frame in reversed(list(source)):
                if frame[2] is not None:
                    return frame[2]
        return None

    def _wrap_sweep(self, sweep):
        """Trace ``cli._sweep``: the pool wait, and each row builder as ``cli.rows``."""
        rows = self.wrap(lambda worker, job: worker(job), "cli.rows", span=True)

        def traced_sweep(jobs, worker):
            return sweep(jobs, functools.partial(rows, worker))

        return self.wrap(traced_sweep, "cli._sweep", span=True)

    def install(self):
        """Patch every traced name in every loaded drfsim namespace."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "drfsim" or n.startswith("drfsim."))]
        replacements = {}
        for table, span in ((SPANS, True), (COUNTERS, False)):
            for module_name, names in table.items():
                module = sys.modules[f"drfsim.{module_name}"]
                for attr in names:
                    original = getattr(module, attr)
                    replacements[id(original)] = self.wrap(
                        original, f"{module_name}.{attr}", span)
        cli = sys.modules["drfsim.cli"]
        if hasattr(cli, "_sweep"):  # the pool exists only while the CLI has one
            replacements[id(cli._sweep)] = self._wrap_sweep(cli._sweep)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._state()  # register the main thread's stack
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def stats(self) -> dict:
        """name -> {calls, total_s, self_s, work}, summed over threads."""
        merged = {}
        with self._lock:
            for per_thread in self._thread_stats:
                for name, (calls, total, self_s, work) in per_thread.items():
                    m = merged.setdefault(
                        name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
                    m["calls"] += calls
                    m["total_s"] += total
                    m["self_s"] += self_s
                    m["work"] += work
        return merged

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), fh)
