"""Per-layer tracing for the benchmark, measured from outside the library.

The tracer never edits ``src/``: it wraps public functions and methods of
each layer (module attributes and class attributes) with spans, records
their counts and times, and restores every original on :meth:`Tracer.close`.

Spans nest.  A span's *self* time is its duration minus the time covered by
its direct child spans, so a layer's self time excludes the layers it calls
into.  Totals live in shared memory created before any worker forks, so the
spans of pooled workers (``fork`` start method) land in the same counters as
the parent's; every slot is kept separately for the parent process and for
workers, and separately per query kind.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import time
import weakref

#: Spans recorded by the wrapped callables.  A span name is also a slot
#: group: ``<name>.calls``, ``<name>.total_s`` and ``<name>.self_s``.
SPANS = (
    "model",  # the benchmark's own span around one Model query
    "symbolic.explore",
    "typesystem.infer",
    "symbolic.table_build",
    "symbolic.table_bytes",
    "analysis.engine",
    "analysis.refine",
    "analysis.parallel",
    "analysis.parallel.pool_start",
    "analysis.parallel.worker",
    "analysis.linear",
    "analysis.box",
    "polytope.volume",
    "polytope.chebyshev",
    "polytope.lp_prepare",
    "polytope.lp_solve",
)

#: Plain counters added by the wrappers.
COUNTERS = (
    "symbolic.paths",
    "symbolic.table_bytes",
    "analysis.linear.paths",
    "analysis.box.paths",
    "geometry.volume_lookups",
)

#: Which layer each span's self time belongs to.
SPAN_LAYER = {
    "model": "model",
    "symbolic.explore": "symbolic",
    "typesystem.infer": "typesystem",
    "symbolic.table_build": "symbolic",
    "symbolic.table_bytes": "symbolic",
    "analysis.engine": "analysis.engine",
    "analysis.refine": "analysis.refine",
    "analysis.parallel": "analysis.parallel",
    "analysis.parallel.pool_start": "analysis.parallel",
    "analysis.parallel.worker": "analysis.parallel",
    "analysis.linear": "analysis.linear",
    "analysis.box": "analysis.box",
    "polytope.volume": "polytope",
    "polytope.chebyshev": "polytope",
    "polytope.lp_prepare": "polytope",
    "polytope.lp_solve": "polytope",
}

KINDS = ("cold", "warm", "refine")
SIDES = ("parent", "worker")

_FIELDS = ("calls", "total_s", "self_s")
_SLOTS = tuple(f"{span}.{field}" for span in SPANS for field in _FIELDS) + COUNTERS
_SLOT_INDEX = {name: index for index, name in enumerate(_SLOTS)}

#: Capacity of the shared worker-interval log (start, end pairs).
_INTERVAL_CAPACITY = 200_000


class Tracer:
    """Shared-memory span and counter store, plus the layer wrappers.

    Create it, call :meth:`install` before the first pool forks, set
    :attr:`kind` before each query and toggle :attr:`enabled` to compare
    traced and untraced queries in one process.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self._lock = context.Lock()
        self._values = context.RawArray("d", len(KINDS) * len(SIDES) * len(_SLOTS))
        self._intervals = context.RawArray("d", 2 * _INTERVAL_CAPACITY)
        self._interval_count = context.RawValue("i", 0)
        self._kind = context.RawValue("i", 0)
        self._enabled = context.RawValue("b", 1)
        self._parent_pid = os.getpid()
        self._stack_pid = os.getpid()
        self._stack: list[list] = []
        #: The parent's ``analysis.parallel`` spans as (start, end).
        self.parallel_spans: list[tuple[float, float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_pools: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # State shared with workers
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._enabled.value)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled.value = 1 if value else 0

    @property
    def kind(self) -> str:
        return KINDS[self._kind.value]

    @kind.setter
    def kind(self, value: str) -> None:
        self._kind.value = KINDS.index(value)

    def _offset(self) -> int:
        side = 0 if os.getpid() == self._parent_pid else 1
        return (self._kind.value * len(SIDES) + side) * len(_SLOTS)

    def add(self, name: str, value: float) -> None:
        index = self._offset() + _SLOT_INDEX[name]
        with self._lock:
            self._values[index] += value

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _frames(self) -> list[list]:
        # A forked worker inherits the parent's open frames; they never close
        # in the worker, so it starts from an empty stack instead.
        if os.getpid() != self._stack_pid:
            self._stack_pid = os.getpid()
            self._stack = []
        return self._stack

    @contextlib.contextmanager
    def span(self, name: str):
        frames = self._frames()
        frame = [name, time.perf_counter(), 0.0]
        frames.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            frames.pop()
            duration = end - frame[1]
            if frames:
                frames[-1][2] += duration
            base = self._offset()
            with self._lock:
                self._values[base + _SLOT_INDEX[f"{name}.calls"]] += 1
                self._values[base + _SLOT_INDEX[f"{name}.total_s"]] += duration
                self._values[base + _SLOT_INDEX[f"{name}.self_s"]] += duration - frame[2]
                if name == "analysis.parallel.worker":
                    count = self._interval_count.value
                    if count < _INTERVAL_CAPACITY:
                        self._intervals[2 * count] = frame[1]
                        self._intervals[2 * count + 1] = end
                        self._interval_count.value = count + 1
            if name == "analysis.parallel" and os.getpid() == self._parent_pid:
                self.parallel_spans.append((frame[1], end))

    def snapshot(self) -> list[float]:
        """A copy of every counter (diff two snapshots for one query)."""
        with self._lock:
            return list(self._values)

    @staticmethod
    def read(values: list[float], kind: str, side: str, name: str) -> float:
        offset = (KINDS.index(kind) * len(SIDES) + SIDES.index(side)) * len(_SLOTS)
        return values[offset + _SLOT_INDEX[name]]

    def worker_intervals(self) -> list[tuple[float, float]]:
        with self._lock:
            count = self._interval_count.value
            flat = list(self._intervals[: 2 * count])
        return list(zip(flat[0::2], flat[1::2]))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, owner, attribute: str, span: str, counter=None, first_only=None) -> None:
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._enabled.value or (first_only is not None and not first_only(args)):
                return original(*args, **kwargs)
            with tracer.span(span):
                result = original(*args, **kwargs)
            if counter is not None:
                name, measure = counter
                tracer.add(name, measure(args, result))
            return result

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _count_only(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._enabled.value:
                tracer.add(name, 1)
            return original(*args, **kwargs)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _first_submit(self, args) -> bool:
        # With the fork start method a process pool forks all of its workers
        # on its first submit, so that call is the pool's start-up.
        pool = args[0]
        if pool in self._seen_pools:
            return False
        self._seen_pools.add(pool)
        return True

    def install(self) -> None:
        """Wrap every traced layer (call before any worker pool starts)."""
        import concurrent.futures

        import repro.analysis.model as model_module
        import repro.analysis.parallel as parallel
        import repro.analysis.refine as refine
        import repro.symbolic.execute as execute
        from repro.analysis.box_analyzer import BoxPathAnalyzer
        from repro.analysis.linear_analyzer import GeometryCache, LinearPathAnalyzer
        from repro.polytope.highs import PreparedLP
        from repro.polytope.polytope import Polytope
        from repro.symbolic.arena import PathTable

        self._wrap(
            model_module, "symbolic_paths", "symbolic.explore",
            counter=("symbolic.paths", lambda args, result: result.path_count),
        )
        self._wrap(execute, "infer_weighted_type", "typesystem.infer")
        self._wrap(execute.SymbolicExecutionResult, "table", "symbolic.table_build")
        self._wrap(
            PathTable, "to_bytes", "symbolic.table_bytes",
            counter=("symbolic.table_bytes", lambda args, result: len(result)),
        )
        self._wrap(model_module, "analyze_execution", "analysis.engine")
        self._wrap(refine, "refine_execution", "analysis.refine")
        for method in ("analyze", "analyze_contributions", "analyze_refinement_jobs", "analyze_stream"):
            self._wrap(parallel.ParallelAnalysisExecutor, method, "analysis.parallel")
        self._wrap(
            concurrent.futures.ProcessPoolExecutor, "submit", "analysis.parallel.pool_start",
            first_only=self._first_submit,
        )
        for function in ("analyze_arena_chunk", "analyze_chunk"):
            self._wrap(parallel, function, "analysis.parallel.worker")
        for cls, span in ((LinearPathAnalyzer, "analysis.linear"), (BoxPathAnalyzer, "analysis.box")):
            paths = f"{span}.paths"
            self._wrap(cls, "analyze", span, counter=(paths, lambda args, result: 1))
            self._wrap(cls, "analyze_batch", span, counter=(paths, lambda args, result: len(args[1])))
            self._wrap(cls, "analyze_table", span, counter=(paths, lambda args, result: len(args[2])))
        self._wrap(Polytope, "volume_bounds", "polytope.volume")
        self._wrap(Polytope, "chebyshev_center", "polytope.chebyshev")
        self._wrap(PreparedLP, "__init__", "polytope.lp_prepare")
        self._wrap(PreparedLP, "solve", "polytope.lp_solve")
        self._count_only(GeometryCache, "volume", "geometry.volume_lookups")
        self._count_only(GeometryCache, "volume_restricted", "geometry.volume_lookups")

    def close(self) -> None:
        """Restore every wrapped attribute."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def covered_seconds(spans: list[tuple[float, float]], intervals: list[tuple[float, float]]) -> float:
    """Seconds of ``spans`` during which at least one of ``intervals`` ran."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    covered = 0.0
    for span_start, span_end in spans:
        for start, end in merged:
            if end <= span_start:
                continue
            if start >= span_end:
                break
            covered += min(end, span_end) - max(start, span_start)
    return covered
