"""Per-layer trace of an ``eigenrom run`` call, taken from outside the package.

The tracer replaces each target function with a wrapper in every
``eigenrom.*`` module namespace that binds it, so the pipeline's own lookups
(``harness.run_fom``, ``continuation.spd_solve``, ``pod.sym_eig_desc``, ...)
go through the wrapper.  Each call records a span (name, start, end, parent,
and the run id shared by all spans of one solve) and counters taken from its
arguments and return value.  Spans stay in memory; the caller writes them
out.  A target that the package no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "eigenrom"
LAYERS = ("mesh", "fem", "continuation", "linalg", "pod", "rom", "adapt",
          "harness")
# the benchmark's own span around cli.main; its layer is the harness
ROOT_SPAN = "cli.main"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _triangles(args, kwargs, mesh):
    return {"mesh.triangles": len(mesh.triangles)}


def _nnz(matrix):
    nnz = getattr(matrix, "nnz", None)
    return nnz if nnz is not None else len(matrix.values)


def _assemble(args, kwargs, result):
    A, M = result
    return {"fem.nnz": _nnz(A) + _nnz(M)}


def _run_fom(args, kwargs, result):
    trace = result[0]
    return {"continuation.steps": trace.n_steps,
            "continuation.unconverged": int(not trace.converged),
            "continuation.warnings": len(trace.warnings)}


def _build_pod(args, kwargs, basis):
    snaps = _arg(args, kwargs, 0, "S")
    return {"pod.columns": getattr(snaps, "matrix", snaps).shape[1],
            "pod.n_pod": basis.N}


def _run_rom(args, kwargs, result):
    trace = result[0]
    return {"rom.steps": trace.n_steps,
            "rom.unconverged": int(not trace.converged)}


def _mark(args, kwargs, marked):
    etas = _arg(args, kwargs, 0, "etas")
    return {"adapt.marked": len(marked),
            "adapt.mark_candidates": len(etas.per_triangle)}


# (layer, function) -> counter extractor or None
TARGETS = {
    ("mesh", "generate_square"): _triangles,
    ("mesh", "generate_lshape"): _triangles,
    ("mesh", "bisect_refine"): _triangles,
    ("mesh", "mesh_stats"): None,
    ("fem", "build_dofmap"): None,
    ("fem", "assemble"): _assemble,
    ("continuation", "run_fom"): _run_fom,
    ("linalg", "spd_solve"): None,
    ("linalg", "sym_eig_desc"): None,
    ("pod", "singular_values"): None,
    ("pod", "build_pod"): _build_pod,
    ("rom", "reduce"): None,
    ("rom", "run_rom"): _run_rom,
    ("adapt", "adaptive_solve"): None,
    ("adapt", "estimate"): None,
    ("adapt", "mark"): _mark,
    ("harness", "run_experiment"): None,
    ("harness", "emit_csv"): None,
}

# (metric prefix, span names); each gives <prefix>_s (summed span time)
TIMED = (
    ("mesh.generate", ("mesh.generate_square", "mesh.generate_lshape")),
    ("mesh.stats", ("mesh.mesh_stats",)),
    ("mesh.bisect", ("mesh.bisect_refine",)),
    ("fem.dofmap", ("fem.build_dofmap",)),
    ("fem.assemble", ("fem.assemble",)),
    ("continuation.run_fom", ("continuation.run_fom",)),
    ("linalg.spd_solve", ("linalg.spd_solve",)),
    ("linalg.sym_eig_desc", ("linalg.sym_eig_desc",)),
    ("pod.singular_values", ("pod.singular_values",)),
    ("pod.build_pod", ("pod.build_pod",)),
    ("rom.reduce", ("rom.reduce",)),
    ("rom.run_rom", ("rom.run_rom",)),
    ("adapt.estimate", ("adapt.estimate",)),
    ("adapt.mark", ("adapt.mark",)),
)
# (metric name, span name) pairs reported as call counts
CALLS = (
    ("mesh.bisect_calls", "mesh.bisect_refine"),
    ("linalg.spd_solve_calls", "linalg.spd_solve"),
    ("linalg.sym_eig_desc_calls", "linalg.sym_eig_desc"),
)
COUNTERS = ("mesh.triangles", "fem.nnz", "continuation.steps",
            "continuation.unconverged", "continuation.warnings", "pod.columns",
            "pod.n_pod", "rom.steps", "rom.unconverged")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    run_id: str
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the package on
    ``__exit__``.  Single-threaded: the CLI never runs calls concurrently
    unless ``--jobs`` is passed, which the benchmark never does."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.absent: list[str] = []          # targets the package lacks
        self.failed_counters: set[str] = set()
        self._stack: list[int] = []
        self._run_id = ""
        self._patches: list[tuple] = []

    def __enter__(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and
                   (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for (layer, fn_name), count in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(f"{layer}.{fn_name}")
                continue
            wrapper = self._wrap(layer, f"{layer}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self._run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                self._count(name, count, args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, count, args, kwargs, result):
        try:
            values = count(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            # the call's signature or result changed shape: report the
            # counter as unavailable instead of failing the run
            self.failed_counters.add(name)
            return
        run = self.counters[self._run_id]
        for key, value in values.items():
            run[key] += value

    def call(self, run_id: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced solve."""
        self._run_id = run_id
        span = self._open(ROOT_SPAN, "harness")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict:
    """Per-layer metrics of one traced solve (every name, zero when the
    solve never entered that layer)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    metrics = {}
    for prefix, names in TIMED:
        metrics[f"{prefix}_s"] = sum(s.duration for n in names
                                     for s in by_name[n])
    for metric, name in CALLS:
        metrics[metric] = len(by_name[name])
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0.0)
    steps = metrics["continuation.steps"]
    metrics["continuation.step_ms"] = (
        1e3 * metrics["continuation.run_fom_s"] / steps if steps else 0.0)
    candidates = counters.get("adapt.mark_candidates", 0.0)
    metrics["adapt.marked_fraction"] = (
        counters.get("adapt.marked", 0.0) / candidates if candidates else 0.0)
    selfs = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans
                                         if s.layer == layer)
    return metrics


def median_metrics(per_solve: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_solve)
            for k in per_solve[0]}
