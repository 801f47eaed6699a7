"""Span tracer for one nhssh CLI process, and the per-layer metrics its spans give.

Run as a script, it wraps the public functions of each nhssh module, the
numpy.linalg kernels they call and the file writes of the scenarios, then runs
the CLI and writes the spans as JSON when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py <spans.json> run --scenario ...

Nothing in the program changes: the wrappers replace module attributes in this
process only. A span is (id, name, start, end, parent id, size), with times
from ``time.perf_counter``. A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

# Layer (module) -> its functions whose calls become spans.
TRACED = {
    "lattice": ("build_hamiltonian",),
    "spectral": ("eigendecompose", "spectrum_sweep", "match_branches"),
    "dynamics": ("initial_edge_state", "evolve_spectral", "evolve_propagator", "run_quench"),
    "observables": ("bipartite_norms", "center_of_mass", "classify_side"),
    "scenarios": ("run_scenario",),
}
# eig and inv, plus svd, which np.linalg.cond and the matrix 2-norm call.
LINALG = ("eig", "inv", "svd")

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = (
    *((f"linalg.{k}.{m}", u, "lower") for k in LINALG for m, u in (("calls", "count"),
                                                                 ("self_s", "s"))),
    ("spectral.eigendecompose.calls", "count", "lower"),
    ("spectral.eigendecompose.self_s", "s", "lower"),
    ("spectral.spectrum_sweep.self_s", "s", "lower"),
    ("spectral.spectrum_sweep.rows", "count", "lower"),
    ("spectral.match_branches.self_s", "s", "lower"),
    *((f"dynamics.{f}.{m}", u, "lower")
      for f in ("initial_edge_state", "evolve_spectral", "evolve_propagator")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("dynamics.propagator_share", "ratio", "higher"),
    ("lattice.build_hamiltonian.calls", "count", "lower"),
    ("lattice.build_hamiltonian.self_s", "s", "lower"),
    ("observables.calls", "count", "lower"),
    ("observables.self_s", "s", "lower"),
    ("scenarios.run_scenario.self_s", "s", "lower"),
    ("scenarios.write_s", "s", "lower"),
    ("scenarios.rows_written", "count", "lower"),
    ("scenarios.bytes_written", "bytes", "lower"),
    ("parallel.thread_map.wall_s", "s", "lower"),
    ("parallel.thread_map.busy_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Keeps spans in memory; each thread has its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; ``parent`` links work handed to another thread."""
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        sized = [0]
        start = time.perf_counter()
        try:
            yield span_id, sized
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, sized[0]))

    def wrap(self, name: str, fn, sized: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as (_, size):
                result = fn(*args, **kwargs)
                if sized:
                    size[0] = len(result)
                return result
        return traced

    def wrap_thread_map(self, fn):
        """thread_map span, with one parallel.item span per work item."""
        @functools.wraps(fn)
        def traced(work, items, threads=1):
            items = list(items)
            with self.span("parallel.thread_map") as (span_id, size):
                size[0] = max(1, min(threads, len(items)))

                def item(x):
                    with self.span("parallel.item", parent=span_id):
                        return work(x)
                return fn(item, items, threads)
        return traced


def _replace_everywhere(modules, original, traced) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the traced nhssh functions, numpy.linalg kernels and file writes."""
    import importlib
    import pathlib

    import numpy.linalg

    package = [m for n, m in list(sys.modules.items()) if n == "nhssh" or n.startswith("nhssh.")]
    for layer, names in TRACED.items():
        owner = importlib.import_module(f"nhssh.{layer}")
        for name in names:
            original = getattr(owner, name)
            traced = tracer.wrap(f"{layer}.{name}", original, sized=name == "spectrum_sweep")
            _replace_everywhere(package, original, traced)
    parallel = importlib.import_module("nhssh.parallel")
    _replace_everywhere(package, parallel.thread_map, tracer.wrap_thread_map(parallel.thread_map))

    try:  # the module whose globals cond and norm look svd up in
        impl = importlib.import_module("numpy.linalg._linalg")  # numpy >= 2
    except ModuleNotFoundError:
        impl = importlib.import_module("numpy.linalg.linalg")
    for name in LINALG:
        original = getattr(numpy.linalg, name)
        _replace_everywhere((numpy.linalg, impl), original,
                            tracer.wrap(f"linalg.{name}", original))
    for name in ("write_bytes", "write_text"):
        setattr(pathlib.Path, name, tracer.wrap("scenarios.write", getattr(pathlib.Path, name)))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time and summed size."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, size in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        entry = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "size": 0,
                                         "capacity": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - _covered([iv for iv in inside if iv[1] > iv[0]])
        entry["size"] += size
        entry["capacity"] += (end - start) * size
    return totals


def merge_totals(parts) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for totals in parts:
        for name, entry in totals.items():
            into = merged.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    return merged


def layer_metrics(totals, rows_written: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one iteration, all of PER_LAYER but trace.overhead_s."""
    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for kernel in LINALG:
        metrics[f"linalg.{kernel}.calls"] = get(f"linalg.{kernel}", "calls")
        metrics[f"linalg.{kernel}.self_s"] = get(f"linalg.{kernel}", "self")
    for name in ("spectral.eigendecompose", "dynamics.initial_edge_state",
                 "dynamics.evolve_spectral", "dynamics.evolve_propagator",
                 "lattice.build_hamiltonian"):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self")
    metrics["spectral.spectrum_sweep.self_s"] = get("spectral.spectrum_sweep", "self")
    metrics["spectral.spectrum_sweep.rows"] = get("spectral.spectrum_sweep", "size")
    metrics["spectral.match_branches.self_s"] = get("spectral.match_branches", "self")
    evolutions = metrics["dynamics.evolve_spectral.calls"] + metrics["dynamics.evolve_propagator.calls"]
    metrics["dynamics.propagator_share"] = (
        metrics["dynamics.evolve_propagator.calls"] / evolutions if evolutions else 0.0
    )
    observables = [f"observables.{f}" for f in TRACED["observables"]]
    metrics["observables.calls"] = sum(get(n, "calls") for n in observables)
    metrics["observables.self_s"] = sum(get(n, "self") for n in observables)
    metrics["scenarios.run_scenario.self_s"] = get("scenarios.run_scenario", "self")
    metrics["scenarios.write_s"] = get("scenarios.write", "total")
    metrics["scenarios.rows_written"] = rows_written
    metrics["scenarios.bytes_written"] = bytes_written
    metrics["parallel.thread_map.wall_s"] = get("parallel.thread_map", "total")
    metrics["parallel.thread_map.busy_s"] = get("parallel.item", "total")
    capacity = get("parallel.thread_map", "capacity")
    metrics["parallel.efficiency"] = metrics["parallel.thread_map.busy_s"] / capacity if capacity else 0.0
    metrics["cli.import_s"] = get("cli.import", "total")
    metrics["cli.main.self_s"] = get("cli.main", "self")
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import nhssh.cli
    install(tracer)
    try:
        with tracer.span("cli.main"):
            code = nhssh.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
