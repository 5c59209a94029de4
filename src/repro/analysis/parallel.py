"""Parallel bound-analysis: chunked fan-out of the per-path hot loop.

The GuBPI engine reduces posterior-bound computation to analysing a finite
set of symbolic interval paths and summing their contributions (Theorem 6.1).
The per-path analyses are completely independent — the classic
embarrassingly-parallel shape — yet the paper's workloads sit exactly in the
regime where it matters: path explosion (Section 7.5) produces tens of
thousands of paths, each of which runs a polytope volume computation or an
exponential box grid.

How the paths reach an analyzer cannot change the sum, so this module has
**one chunk body** and **one dispatcher**:

* :func:`analyze_table_slice` is the chunk body: a ``[start, stop)`` slice
  (or an explicit index list) of a :class:`~repro.symbolic.arena.PathTable`,
  swept column-wise by analyzers with ``analyze_table`` (box, linear) and
  handed as decoded paths to analyzers without it.  The serial engine, the
  in-process backends, process workers (:func:`analyze_arena_chunk`) and the
  socket tier's remote workers all run it; :func:`analyze_chunk` is the
  same loop over pickled path objects (the pickle transport and the
  degradation ladder).
* :class:`ParallelAnalysisExecutor` owns the pool.  Its three query kinds —
  a batch partition (:meth:`~ParallelAnalysisExecutor.analyze_contributions`,
  cut deterministically and cost-balanced by :func:`partition_paths`),
  refinement index lists with per-job options
  (:meth:`~ParallelAnalysisExecutor.analyze_refinement_jobs`) and bounded
  in-flight streamed chunks (:meth:`~ParallelAnalysisExecutor.analyze_stream`)
  — only build jobs; one private dispatcher submits each job to the backend
  (in-process over the compiled program's table, a process pool with an
  :class:`~repro.analysis.transport.ArenaChunkRef` or a pickled
  :class:`ChunkPayload`, or a socket work-queue job), collects the futures
  and holds the socket → local process → serial degradation ladder.
* Results merge with :func:`repro.analysis.engine.reduce_contributions`,
  which always folds contributions in canonical path order — the merged
  bounds are therefore **bit-identical** to a serial run, independent of the
  worker count, the chunk size, the transport and the order in which
  workers finish.

Exceptions raised inside a worker (including
:class:`~repro.symbolic.PathExplosionError` and analyzer failures) are
re-raised in the parent by ``concurrent.futures``.

Backend guidance: the ``"process"`` executor is the right default for
CPU-bound bound analysis (the per-path work is pure Python and NumPy, so the
GIL serialises threads); ``"thread"`` is useful inside environments that
forbid subprocesses; ``"serial"`` runs the identical chunk body in-process
(handy for debugging a parallel run).

Process payload transport is a knob (``payload_transport``): ``"arena"``
(the default) publishes the path table once as a shared-memory segment
(cached across queries, unlinked on
:meth:`ParallelAnalysisExecutor.close`) and ships tiny index-range
references; ``"pickle"`` ships interned object graphs per chunk.  In-process
backends pass direct references and never intern.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
import itertools
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from collections import OrderedDict

from .. import faults
from ..intervals import Interval
from ..symbolic import (
    PathExplosionError,
    SymbolicExecutionResult,
    SymbolicPath,
    intern_paths,
)
from ..symbolic.arena import encode_paths
from .config import (
    DEFAULT_IO_TIMEOUT,
    DEFAULT_SOCKET_ENDPOINT,
    EXECUTOR_KINDS,
    AnalysisOptions,
    _require_positive,
)
from .engine import (
    AnalysisReport,
    DenotationBounds,
    PathContribution,
    analyze_single_path,
    reduce_contributions,
)
from .registry import (
    AnalyzerSpec,
    analyzer_specs,
    ensure_analyzers_registered,
    resolve_analyzers,
)
from .transport import (
    ArenaChunkRef,
    ArenaSegment,
    ContextSegment,
    attach_arena,
    attach_context,
    create_arena_segment,
    create_context_segment,
    publish_arena_image,
    register_worker_reset,
    shared_memory_available,
)

__all__ = [
    "ChunkPayload",
    "ParallelAnalysisExecutor",
    "analyze_arena_chunk",
    "analyze_chunk",
    "analyze_table_slice",
    "close_shared_executors",
    "partition_paths",
    "shared_executor",
]

#: How many chunks to create per worker when no explicit chunk size is set.
#: Oversubscription lets the pool rebalance when per-chunk cost estimates are
#: off, at the price of slightly more dispatch overhead.
_OVERSUBSCRIPTION = 4

#: Default number of paths per streaming chunk when the caller sets no
#: explicit ``chunk_size``.  Streaming cannot cost-balance (the total cost is
#: unknown while the stream is live), so it uses fixed-size chunks: small
#: enough that the first chunk dispatches early (time-to-first-bound), large
#: enough to amortise pickling overhead.
_STREAM_CHUNK_SIZE = 32


def partition_paths(
    paths: Sequence[SymbolicPath],
    workers: int,
    chunk_size: Optional[int] = None,
) -> list[range]:
    """Cut ``paths`` into deterministic contiguous index ranges.

    With an explicit ``chunk_size`` the cut is a plain fixed-size slicing.
    Otherwise the partition targets ``workers × 4`` chunks of roughly equal
    *estimated cost* (not equal length): box-grid analysis is exponential in
    the path dimension, so a handful of deep paths can dominate a workload
    and fixed-length chunks would leave most workers idle.  The partition
    depends only on the path sequence and the arguments — never on timing —
    so repeated runs fan out identically.
    """
    count = len(paths)
    if count == 0:
        return []
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        return [range(start, min(start + chunk_size, count)) for start in range(0, count, chunk_size)]
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")

    target_chunks = min(count, workers * _OVERSUBSCRIPTION)
    if target_chunks <= 1:
        return [range(0, count)]
    costs = [path.analysis_cost_hint() for path in paths]
    total_cost = sum(costs)
    target_cost = total_cost / target_chunks if total_cost > 0 else 0.0

    chunks: list[range] = []
    start = 0
    accumulated = 0.0
    for index, cost in enumerate(costs):
        accumulated += cost
        is_last = index == count - 1
        if is_last or (accumulated >= target_cost and target_cost > 0.0):
            chunks.append(range(start, index + 1))
            start = index + 1
            accumulated = 0.0
    return chunks


@dataclass(frozen=True)
class ChunkPayload:
    """Everything one worker needs to analyse one chunk of paths.

    The payload is deliberately *value-only*: paths, targets and options are
    plain picklable data, and analyzers travel as registry specs rather than
    instances (resolved by name inside the worker).
    """

    index: int
    paths: tuple[SymbolicPath, ...]
    targets: tuple[Interval, ...]
    options: AnalysisOptions
    specs: tuple[AnalyzerSpec, ...]


def _analyze_grouped(
    indices: Iterable[int],
    path_at: Callable[[int], SymbolicPath],
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
    table=None,
) -> list[PathContribution]:
    """The chunk loop: route every path to the first applicable analyzer.

    Consecutive paths routed to the same analyzer form a group, analysed in
    one call.  With a ``table``, analyzers that implement the columnar hooks
    (``applicable_table`` / ``analyze_table``) are asked about and handed
    path *indices* and sweep the table's node/CSR arrays — no
    ``SymbolicPath`` is materialised for them; every other analyzer
    receives ``path_at(index)`` through ``analyze_batch`` (when it has one)
    or per-path ``analyze``.  Every route produces the same contribution
    records, so the loop's inputs never move a bound.
    """
    contributions: list[PathContribution] = []
    group: list[int] = []
    group_analyzer = None

    def pick(index: int):
        for analyzer in analyzers:
            table_pred = getattr(analyzer, "applicable_table", None) if table is not None else None
            if table_pred is not None:
                if table_pred(table, index, options):
                    return analyzer
            elif analyzer.applicable(path_at(index), options):
                return analyzer
        return None

    def flush() -> None:
        nonlocal group, group_analyzer
        if not group:
            return
        analyzer = group_analyzer
        table_batch = getattr(analyzer, "analyze_table", None) if table is not None else None
        batch = getattr(analyzer, "analyze_batch", None)
        if table_batch is not None:
            method, results = "analyze_table", table_batch(table, tuple(group), targets, options)
        elif batch is not None and len(group) > 1:
            paths = [path_at(index) for index in group]
            method, results = "analyze_batch", batch(paths, targets, options)
        else:
            method = "analyze"
            results = [analyzer.analyze(path_at(index), targets, options) for index in group]
        if len(results) != len(group):
            raise RuntimeError(
                f"analyzer {analyzer.name!r}.{method} returned "
                f"{len(results)} results for {len(group)} paths; one result "
                "per path is required (a shortfall would silently drop "
                "path contributions and break soundness)"
            )
        for index, result in zip(group, results):
            truncated = table.is_truncated(index) if table is not None else path_at(index).truncated
            contributions.append(
                PathContribution(
                    analyzer_name=analyzer.name,
                    truncated=truncated,
                    contributions=tuple(result),
                )
            )
        group = []
        group_analyzer = None

    for index in indices:
        analyzer = pick(index)
        if analyzer is None:
            flush()
            # Delegate to the shared single-path helper for the canonical
            # "no applicable analyzer" error.
            contributions.append(analyze_single_path(path_at(index), analyzers, targets, options))
            continue
        if analyzer is not group_analyzer:
            flush()
            group_analyzer = analyzer
        group.append(index)
    flush()
    return contributions


def _analyze_paths_resolved(
    paths: Sequence[SymbolicPath],
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
) -> list[PathContribution]:
    """The chunk loop over materialised paths (no table)."""
    return _analyze_grouped(range(len(paths)), paths.__getitem__, targets, options, analyzers)


def analyze_chunk(payload: ChunkPayload) -> tuple[int, list[PathContribution]]:
    """Analyse one pickled chunk of paths (runs inside a worker)."""
    ensure_analyzers_registered(payload.specs)
    analyzers = resolve_analyzers(payload.options)
    return payload.index, _analyze_paths_resolved(
        payload.paths, payload.targets, payload.options, analyzers
    )


def _analyze_table_range(
    table,
    start: int,
    stop: int,
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
    paths: Optional[Sequence[SymbolicPath]] = None,
    indices: Optional[Sequence[int]] = None,
    columnar: bool = True,
) -> list[PathContribution]:
    """The chunk loop over a ``PathTable`` slice (columnar unless told not to).

    ``paths`` (optional) is the already-materialised path sequence the
    table was built from — in-process backends pass ``execution.paths`` so
    analyzers without the columnar hooks receive the original objects for
    free; workers over a shared-memory attachment leave it ``None`` and
    decode on demand (memoised per call).  ``indices`` (optional) replaces
    the contiguous ``[start, stop)`` range with an explicit index list (the
    refinement scheduler's scattered worst-gap subsets); results follow the
    given order.
    """
    if paths is not None:
        path_at = paths.__getitem__
    else:
        decoded: dict[int, SymbolicPath] = {}

        def path_at(index: int) -> SymbolicPath:
            path = decoded.get(index)
            if path is None:
                path = decoded[index] = table.decode_path(index)
            return path

    return _analyze_grouped(
        indices if indices is not None else range(start, stop),
        path_at, targets, options, analyzers, table=table if columnar else None,
    )


#: Worker-side cache of *resolved* query contexts, keyed by the context
#: segment name (which uniquely identifies one query shape): the decoded
#: targets/options plus the analyzer instances, with
#: ``ensure_analyzers_registered`` already applied.  Without it every chunk
#: of a query re-decoded the context and re-resolved the registry — pure
#: per-chunk overhead for multi-chunk queries.  Context segments are
#: published once per query shape and shared by every arena segment of the
#: query (batch *and* streamed per-chunk segments), so the context name
#: alone is the right key — keying by arena segment too would miss on every
#: streamed chunk.
_RESOLVED_CONTEXTS: "OrderedDict[str, tuple]" = OrderedDict()
_RESOLVED_CONTEXT_CAP = 16

# The transport teardown helper is the documented full reset of per-worker
# state; the resolved-context cache participates.
register_worker_reset(_RESOLVED_CONTEXTS.clear)


def _resolved_context(context: str) -> tuple:
    """``(targets, options, analyzers)`` for one query shape (cached)."""
    entry = _RESOLVED_CONTEXTS.get(context)
    if entry is not None:
        _RESOLVED_CONTEXTS.move_to_end(context)
        return entry
    targets, options, specs = attach_context(context)
    ensure_analyzers_registered(specs)
    entry = (targets, options, resolve_analyzers(options))
    _RESOLVED_CONTEXTS[context] = entry
    while len(_RESOLVED_CONTEXTS) > _RESOLVED_CONTEXT_CAP:
        _RESOLVED_CONTEXTS.popitem(last=False)
    return entry


def analyze_table_slice(
    table,
    start: int,
    stop: int,
    targets: tuple[Interval, ...],
    options: AnalysisOptions,
    analyzers,
    paths: Optional[Sequence[SymbolicPath]] = None,
    indices: Optional[Sequence[int]] = None,
) -> list[PathContribution]:
    """Analyse one ``[start, stop)`` slice of a ``PathTable`` (resolved form).

    The transport-independent chunk body: the columnar sweep under
    ``options.columnar``, decoded paths otherwise.  Every consumer holding a
    table and resolved analyzers runs it — the serial engine, in-process
    backends, process workers and the socket tier's remote workers — so all
    produce the exact same contribution records.

    ``indices`` (optional) overrides ``[start, stop)`` with an explicit
    path-index list — the refinement scheduler's scattered worst-gap
    subsets travel through the very same chunk body on every backend.
    """
    return _analyze_table_range(
        table, start, stop, targets, options, analyzers,
        paths=paths, indices=indices, columnar=options.columnar,
    )


def analyze_arena_chunk(ref: ArenaChunkRef) -> tuple[int, list[PathContribution]]:
    """Analyse one chunk referenced into a shared-memory path-table segment.

    The worker attaches the table segment on first sight (the attachment —
    with its decoded-node memo and analyzer scratch space — is cached across
    chunks and queries, see :func:`repro.analysis.transport.attach_arena`)
    and resolves the query context once per query shape instead of once per
    chunk.  The scratch space is how analyzer memos travel on this transport:
    the linear analyzer keeps its cross-path
    :class:`~repro.analysis.linear_analyzer.GeometryCache` there, so LP
    sweeps and exact volumes warm up across every chunk and query a worker
    sees — safely, because the cache's exact-bytes keying returns identical
    float64s on a hit, keeping bounds independent of which chunks landed on
    which worker.  With ``options.columnar`` (the default) the
    ``[start, stop)`` slice runs the columnar loop
    (:func:`_analyze_table_range`); otherwise the slice is decoded and runs
    the materialised loop.  Both compute bit-identical contributions, and
    both match the pickle transport.
    """
    targets, options, analyzers = _resolved_context(ref.context)
    table = attach_arena(ref.segment)
    return ref.index, analyze_table_slice(
        table, ref.start, ref.stop, targets, options, analyzers, indices=ref.indices
    )


def _gathered(results: list[tuple[int, list[PathContribution]]]) -> list[PathContribution]:
    """Reassemble per-chunk results into one canonical-order contribution list."""
    results.sort(key=lambda item: item[0])
    contributions: list[PathContribution] = []
    for _, chunk_contributions in results:
        contributions.extend(chunk_contributions)
    return contributions


#: Process-wide executor cache for callers without their own pool lifecycle
#: (direct ``analyze_execution`` calls).
#: ``Model`` owns and closes its pools explicitly and does not use this.
_SHARED_EXECUTORS: dict[tuple[str, int], "ParallelAnalysisExecutor"] = {}


def shared_executor(options: AnalysisOptions) -> "ParallelAnalysisExecutor":
    """A process-wide pool matching ``options``' executor kind and worker count.

    Created lazily and reused for every subsequent query with the same
    ``(kind, workers)`` — without this, each engine-level call with parallel
    options would fork and tear down a fresh pool.  Shared pools live until
    :func:`close_shared_executors` or interpreter exit (``concurrent.futures``
    joins them atexit).
    """
    key = options.executor_key()
    executor = _SHARED_EXECUTORS.get(key)
    if executor is None or executor._closed:
        executor = ParallelAnalysisExecutor(
            workers=options.workers,
            kind=options.effective_executor,
            socket_endpoint=options.socket_endpoint,
            socket_spawn_workers=options.socket_spawn_workers,
            io_timeout=options.io_timeout,
        )
        _SHARED_EXECUTORS[key] = executor
    return executor


def close_shared_executors() -> None:
    """Shut down every process-wide shared pool (they re-create on demand)."""
    for executor in _SHARED_EXECUTORS.values():
        executor.close()
    _SHARED_EXECUTORS.clear()


# Deterministic teardown at interpreter exit: shared pools, their published
# shared-memory segments and any socket work-queue servers (with the local
# worker processes they spawned) are released even when no caller ever
# invoked close_shared_executors() — without this, an aborted script run
# could leave /dev/shm segments and orphaned worker processes behind.
atexit.register(close_shared_executors)


class ParallelAnalysisExecutor:
    """A reusable worker pool for chunked bound analysis.

    The executor is cheap to construct — the underlying pool is created
    lazily on the first parallel query and reused across queries, which is
    how :class:`repro.Model` amortises pool start-up over a whole evaluation
    scenario.  It is a context manager; :meth:`close` shuts the pool down.

    ``kind`` is one of ``"process"`` (default; true CPU parallelism),
    ``"thread"`` (no pickling, but GIL-bound), ``"serial"`` (the identical
    chunked pipeline without a pool, for debugging) or ``"socket"`` (a TCP
    work queue dispatching chunks to ``python -m repro.service.worker``
    processes — local ones it spawns itself and/or remote ones that connect
    to ``socket_endpoint``; see :mod:`repro.service.queue`).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        kind: str = "process",
        chunk_size: Optional[int] = None,
        socket_endpoint: Optional[str] = None,
        socket_spawn_workers: Optional[int] = None,
        io_timeout: Optional[float] = None,
    ) -> None:
        if kind not in EXECUTOR_KINDS:
            kinds = ", ".join(repr(k) for k in EXECUTOR_KINDS)
            raise ValueError(f"executor kind must be one of {kinds}, got {kind!r}")
        if workers is None:
            workers = os.cpu_count() or 1
        _require_positive("workers", workers)
        if chunk_size is not None:
            _require_positive("chunk_size", chunk_size)
        self.workers = workers
        self.kind = kind
        self.chunk_size = chunk_size
        self.socket_endpoint = socket_endpoint
        self.socket_spawn_workers = socket_spawn_workers
        #: Socket-level patience (seconds): the queue's handshake/liveness
        #: window, and the grace this executor grants a workerless queue
        #: before walking down the degradation ladder.
        self.io_timeout = DEFAULT_IO_TIMEOUT if io_timeout is None else io_timeout
        #: The lazily-started work-queue server of the ``"socket"`` backend
        #: (see :meth:`_ensure_queue`), plus LRU key caches mirroring the
        #: arena/context segment caches of the shared-memory transport.
        self._queue = None
        self._socket_tables: "OrderedDict[int, tuple[tuple, str]]" = OrderedDict()
        self._socket_contexts: "OrderedDict[tuple, str]" = OrderedDict()
        self._pool: Optional[concurrent.futures.Executor] = None
        self._closed = False
        #: Published arena segments, keyed by ``id`` of the path tuple they
        #: encode (each segment pins its tuple, so keys cannot alias).  The
        #: cache is what lets repeated queries over the same compiled path
        #: set dispatch with zero re-encoding and zero per-chunk path bytes.
        self._arena_segments: "OrderedDict[int, ArenaSegment]" = OrderedDict()
        #: Published query-context segments, keyed by the context value
        #: (targets, options, specs — all hashable), so a repeated query
        #: re-uses the published context just like it re-uses the arena.
        self._context_segments: "OrderedDict[tuple, ContextSegment]" = OrderedDict()
        #: Flipped when segment creation fails at runtime (e.g. exhausted
        #: /dev/shm): later queries skip straight to pickled payloads
        #: instead of re-encoding the whole arena image per query only to
        #: fail publishing it again.
        self._arena_degraded = False
        #: The degradation ladder's local process pool, created lazily the
        #: first time the socket backend has to hand work back (see
        #: :meth:`_complete_payloads_locally`).
        self._fallback_pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self.chunks_dispatched = 0
        self.paths_analyzed = 0
        self.arena_segments_created = 0
        #: Ladder telemetry: how many chunks were re-dispatched locally, and
        #: the lowest rung reached ("process" or "serial"; None = no
        #: degradation yet).
        self.degraded_chunks = 0
        self.degraded_to: Optional[str] = None
        #: High-water mark of paths resident in the parent during the last
        #: streamed query (fill buffer + chunks in flight).  Batch queries
        #: leave it untouched; streamed queries reset it at entry.
        self.peak_path_buffer = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[concurrent.futures.Executor]:
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if self.kind in ("serial", "socket"):
            return None
        if self._pool is None:
            if self.kind == "thread":
                self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)
            else:
                self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _ensure_queue(self):
        """The lazily-started work-queue server of the ``"socket"`` backend.

        Binds ``socket_endpoint`` (default: loopback, ephemeral port) on
        first use and spawns ``socket_spawn_workers`` local worker
        processes (default: ``workers`` of them; ``0`` relies entirely on
        external workers connecting to :attr:`queue_address`).
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if self._queue is None:
            # Imported lazily: repro.service imports this module for the
            # shared chunk loop, so a module-level import would be circular.
            from ..service.queue import WorkQueueServer

            self._queue = WorkQueueServer(
                endpoint=self.socket_endpoint or DEFAULT_SOCKET_ENDPOINT,
                io_timeout=self.io_timeout,
            )
            spawn = self.socket_spawn_workers
            if spawn is None:
                spawn = self.workers
            if spawn:
                self._queue.spawn_local_workers(spawn)
        return self._queue

    @property
    def queue_address(self) -> Optional[str]:
        """The bound ``host:port`` of the socket backend's queue (or None)."""
        return self._queue.endpoint if self._queue is not None else None

    def close(self) -> None:
        """Shut the worker pool down and unlink its arena segments (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True, cancel_futures=True)
            self._fallback_pool = None
        if self._queue is not None:
            self._queue.close()
            self._queue = None
        self._socket_tables.clear()
        self._socket_contexts.clear()
        while self._arena_segments:
            _, segment = self._arena_segments.popitem(last=False)
            segment.unlink()
        while self._context_segments:
            _, context = self._context_segments.popitem(last=False)
            context.unlink()

    def __enter__(self) -> "ParallelAnalysisExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self._pool else "cold")
        return (
            f"ParallelAnalysisExecutor(kind={self.kind!r}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, arenas={len(self._arena_segments)}, {state})"
        )

    # ------------------------------------------------------------------
    # Arena segment lifecycle
    # ------------------------------------------------------------------
    #: How many per-query arena segments the executor keeps published.  One
    #: per cached compiled program is the common case; the small LRU bounds
    #: shared-memory usage when a model sweeps execution limits.
    _ARENA_CACHE_CAP = 4

    def _arena_for(self, execution: SymbolicExecutionResult) -> Optional[ArenaSegment]:
        """The published segment encoding ``execution.paths`` (created on miss).

        When the execution already carries a finalised columnar table (the
        batch collector or a previous in-process columnar query built it),
        its bytes are published directly; otherwise the paths are encoded
        through :func:`create_arena_segment`.  Either way the segment is
        just a backing store for the same table bytes.
        """
        if self._arena_degraded:
            return None
        paths = execution.paths
        key = id(paths)
        segment = self._arena_segments.get(key)
        if segment is not None and segment.paths is paths:
            self._arena_segments.move_to_end(key)
            return segment
        if shared_memory_available() and hasattr(execution, "table"):
            # The compiled program's columnar table (built by the run()
            # collector, or finalised here on first use) serialises straight
            # to the wire image — no re-interning, no encode walk.
            segment = publish_arena_image(execution.table().to_bytes(), paths)
        else:
            segment = create_arena_segment(paths)
        if segment is None:
            self._arena_degraded = True
            return None
        self._register_arena(key, segment)
        return segment

    def _register_arena(self, key: int, segment: ArenaSegment) -> None:
        self._arena_segments[key] = segment
        self.arena_segments_created += 1
        while len(self._arena_segments) > self._ARENA_CACHE_CAP:
            _, old = self._arena_segments.popitem(last=False)
            old.unlink()

    def prime_arena(
        self,
        paths: tuple[SymbolicPath, ...],
        intern: bool = True,
        image: Optional[bytes] = None,
    ) -> bool:
        """Publish (and cache) the arena segment for ``paths`` ahead of a query.

        Used by the streamed-query cache tee: once a streamed query has
        materialised its path set into the compile cache, priming makes the
        arena segment itself the cached dispatch representation — the next
        query over those paths attaches workers to the existing segment
        without re-encoding.  ``image`` (optional) is the already-encoded
        table bytes — the tee's builder serialises its columns directly, so
        priming never re-walks the paths.  Returns False when the arena
        transport is unavailable (the query will fall back to pickled
        payloads).
        """
        if self.kind != "process" or self._closed or self._arena_degraded:
            return False
        key = id(paths)
        existing = self._arena_segments.get(key)
        if existing is not None and existing.paths is paths:
            return True
        if image is not None and shared_memory_available():
            segment = publish_arena_image(image, paths)
        else:
            segment = create_arena_segment(paths, intern=intern)
        if segment is None:
            self._arena_degraded = True
            return False
        self._register_arena(key, segment)
        return True

    def arena_segment_names(self) -> tuple[str, ...]:
        """Names of the currently published per-query segments (telemetry)."""
        return tuple(segment.name for segment in self._arena_segments.values())

    #: How many query-context segments stay published (they are tiny — one
    #: pickled (targets, options, specs) tuple each).
    _CONTEXT_CACHE_CAP = 8

    def _context_for(
        self,
        targets: tuple[Interval, ...],
        options: AnalysisOptions,
        specs: tuple[AnalyzerSpec, ...],
    ) -> Optional[ContextSegment]:
        """The published context segment for one query shape (cached)."""
        key = (targets, options, specs)
        context = self._context_segments.get(key)
        if context is not None:
            self._context_segments.move_to_end(key)
            return context
        context = create_context_segment(targets, options, specs)
        if context is None:
            self._arena_degraded = True
            return None
        self._context_segments[key] = context
        while len(self._context_segments) > self._CONTEXT_CACHE_CAP:
            _, old = self._context_segments.popitem(last=False)
            old.unlink()
        return context

    # ------------------------------------------------------------------
    # Socket-backend resource registration
    # ------------------------------------------------------------------
    #: How many path-table resources stay registered with the work queue
    #: (mirrors the arena segment cache: one per cached compiled program).
    _SOCKET_TABLE_CAP = 4
    #: How many query-context resources stay registered (tiny pickles).
    _SOCKET_CONTEXT_CAP = 8

    def _socket_table_key(self, execution: SymbolicExecutionResult, queue) -> str:
        """Register ``execution``'s path-table image with the queue (cached).

        The content hash of the table bytes is the resource key, so the
        image is encoded once per compiled path set, shipped at most once
        per worker connection, and naturally deduplicated when two
        executions encode equal tables.
        """
        from ..service.protocol import hash_bytes

        paths = execution.paths
        ident = id(paths)
        entry = self._socket_tables.get(ident)
        if entry is not None and entry[0] is paths:
            self._socket_tables.move_to_end(ident)
            return entry[1]
        image = execution.table().to_bytes()
        key = hash_bytes(image)
        queue.add_resource(key, image, "table")
        self._socket_tables[ident] = (paths, key)
        while len(self._socket_tables) > self._SOCKET_TABLE_CAP:
            _, (_, old_key) = self._socket_tables.popitem(last=False)
            queue.discard_resource(old_key)
        return key

    def _socket_context_key(
        self,
        queue,
        targets: tuple[Interval, ...],
        options: AnalysisOptions,
        specs: tuple[AnalyzerSpec, ...],
    ) -> str:
        """Register one query shape's pickled context with the queue (cached)."""
        from ..service.protocol import hash_bytes

        cache_key = (targets, options, specs)
        key = self._socket_contexts.get(cache_key)
        if key is not None:
            self._socket_contexts.move_to_end(cache_key)
            return key
        payload = pickle.dumps(cache_key, protocol=pickle.HIGHEST_PROTOCOL)
        key = hash_bytes(payload)
        queue.add_resource(key, payload, "context")
        self._socket_contexts[cache_key] = key
        while len(self._socket_contexts) > self._SOCKET_CONTEXT_CAP:
            _, old_key = self._socket_contexts.popitem(last=False)
            queue.discard_resource(old_key)
        return key

    # ------------------------------------------------------------------
    # Degradation ladder (socket -> local process pool -> serial)
    # ------------------------------------------------------------------
    def _ensure_fallback_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The ladder's local process pool (lazily created, best-effort)."""
        if self._closed:
            return None
        if self._fallback_pool is None:
            try:
                self._fallback_pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            except OSError:  # pragma: no cover - no subprocess support
                return None
        return self._fallback_pool

    # ------------------------------------------------------------------
    # Analysis: job builders over the one chunk dispatcher
    # ------------------------------------------------------------------
    def _specs_for(self, options: AnalysisOptions) -> tuple[AnalyzerSpec, ...]:
        """Analyzer specs for remote workers (in-process backends need none).

        Custom analyzers must be resolvable by name inside remote workers
        (process pool or socket queue); either way an unknown name fails
        fast here, in the parent.
        """
        if self.kind in ("process", "socket"):
            return analyzer_specs(options.analyzer_names)
        resolve_analyzers(options)
        return ()

    def analyze(
        self,
        execution: SymbolicExecutionResult,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
    ) -> list[DenotationBounds]:
        """Denotation bounds for ``targets``, fanned out over the pool.

        The per-chunk results are reassembled in chunk order and folded in
        canonical path order, so the bounds are bit-identical to a serial
        :func:`repro.analysis.engine.analyze_execution` run.  Worker
        exceptions propagate to the caller.
        """
        target_tuple = tuple(targets)
        contributions = self.analyze_contributions(execution, target_tuple, options)
        return reduce_contributions(contributions, target_tuple, report)

    def analyze_contributions(
        self,
        execution: SymbolicExecutionResult,
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
    ) -> list[PathContribution]:
        """Per-path contribution records for ``targets``, in canonical order.

        The dispatch body behind :meth:`analyze`, exposed separately because
        the refinement scheduler needs the *per-path* records (to key its
        gap heap) rather than the reduced sums.  The path set is cut by
        :func:`partition_paths` and every chunk becomes one dispatcher job;
        chunk results are reassembled in chunk order, so
        ``reduce_contributions`` over the returned list reproduces
        :meth:`analyze` bit for bit.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        paths = execution.paths
        # chunk_size is a per-call knob: the caller's options win, the
        # executor's own value is only a default.
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        chunks = partition_paths(paths, self.workers, chunk_size)
        specs = self._specs_for(options)
        # Empty or single-chunk work always runs inline: it is bit-identical
        # (same chunk body) and avoids forking a pool (or binding a work
        # queue) for trivial path sets — e.g. one-path models under a
        # process-wide REPRO_ANALYSIS_WORKERS default.
        with _Dispatch(self, tuple(targets), options, inline=len(chunks) <= 1) as dispatch:
            for chunk_index, chunk in enumerate(chunks):
                dispatch.submit(_ChunkJob(
                    chunk_index, paths, chunk.start, chunk.stop, options, specs,
                    execution=execution,
                ))
            dispatch.drain()
        return _gathered(dispatch.results)

    def analyze_refinement_jobs(
        self,
        execution: SymbolicExecutionResult,
        jobs: Sequence[tuple[tuple[int, ...], AnalysisOptions]],
        targets: Sequence[Interval],
    ) -> list[list[PathContribution]]:
        """Re-analyse explicit path-index groups, each under its own options.

        The refinement scheduler's dispatch primitive: every job is a
        ``(indices, options)`` pair — a scattered worst-gap subset of
        ``execution``'s path table plus the scaled split budgets of its
        refinement level.  Jobs ride the same dispatcher as batch chunks
        (arena refs / pickled payloads / socket index jobs, depending on
        backend and transport), and the per-path records come back in job
        order with each job's records following its index order — so the
        scheduler's merge is deterministic on every backend.

        Returns one contribution list per job.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        if not jobs:
            return []
        paths = execution.paths
        with _Dispatch(self, tuple(targets), jobs[0][1]) as dispatch:
            for job_index, (indices, options) in enumerate(jobs):
                dispatch.submit(_ChunkJob(
                    job_index, paths, 0, 0, options, self._specs_for(options),
                    indices=tuple(indices), execution=execution,
                ))
            dispatch.drain()
        dispatch.results.sort(key=lambda item: item[0])
        return [contributions for _, contributions in dispatch.results]

    def analyze_stream(
        self,
        paths: Iterable[SymbolicPath],
        targets: Sequence[Interval],
        options: Optional[AnalysisOptions] = None,
        report: Optional[AnalysisReport] = None,
        progress: Optional[Callable[[list[DenotationBounds], int], None]] = None,
        contribution_sink: Optional[list] = None,
    ) -> list[DenotationBounds]:
        """Denotation bounds from a *stream* of paths, pipelined over the pool.

        ``paths`` is consumed incrementally (typically the generator of
        :meth:`repro.symbolic.SymbolicExecutor.iter_paths`): paths are
        buffered into fixed-size chunks and dispatched as soon as a chunk
        fills, so workers analyse the first chunks while exploration is still
        enumerating the rest.  The buffer is bounded — at most
        ``workers × options.prefetch`` chunks are in flight; when the bound
        is hit, chunk production blocks until a worker finishes.  Peak parent
        memory is therefore O(chunk size × prefetch × workers) paths instead
        of the whole path set.

        Per-chunk results are reassembled in chunk order and folded in
        canonical path order, so streamed bounds are **bit-identical** to a
        batch :meth:`analyze` run and to the serial loop.  Exceptions from
        the path generator (e.g. a mid-stream
        :class:`~repro.symbolic.PathExplosionError`) and from workers
        propagate to the caller.

        ``progress`` (optional) is the anytime first-bound hook: it is
        invoked **once**, with ``(partial_bounds, paths_done)``, the moment
        the first chunk's contributions are collected.  Partial lower
        bounds are sound (contributions are non-negative); partial upper
        bounds cover only the paths analysed so far.

        ``contribution_sink`` (optional) receives the full canonical-order
        per-path contribution list once the stream completes — the
        refinement scheduler seeds from it without re-sweeping the paths
        (contribution records are a few floats per path, so retaining them
        does not undo the bounded path buffer).

        A streamed chunk has no compiled table to index into, so on the
        process backend it publishes its own short-lived arena segment and
        on the socket backend its own small table resource; either is
        released the moment the chunk's result is collected.
        """
        if self._closed:
            raise RuntimeError("ParallelAnalysisExecutor is closed")
        options = options or AnalysisOptions()
        target_tuple = tuple(targets)
        chunk_size = options.chunk_size if options.chunk_size is not None else self.chunk_size
        if chunk_size is None:
            chunk_size = _STREAM_CHUNK_SIZE
        max_inflight = self.workers * options.prefetch
        specs = self._specs_for(options)

        start = time.perf_counter()
        self.peak_path_buffer = 0
        buffer: list[SymbolicPath] = []
        path_count = 0
        chunk_numbers = itertools.count()
        dispatch = _Dispatch(self, target_tuple, options)

        def fire_progress() -> None:
            """Invoke the anytime first-bound hook once, on the first result."""
            nonlocal progress
            if progress is None or not dispatch.results:
                return
            hook, progress = progress, None
            partial = _gathered(list(dispatch.results))
            hook(reduce_contributions(partial, target_tuple, None), len(partial))

        def note_buffer() -> None:
            resident = len(buffer) + sum(len(job.paths) for job in dispatch.inflight.values())
            self.peak_path_buffer = max(self.peak_path_buffer, resident)

        def flush() -> None:
            dispatch.submit(_ChunkJob(
                next(chunk_numbers), tuple(buffer), 0, len(buffer), options, specs
            ))
            buffer.clear()
            note_buffer()
            while len(dispatch.inflight) >= max_inflight:
                dispatch.wait_some()

        dispatch.on_result = fire_progress
        fault_plan = faults.active()
        with dispatch:
            for path in paths:
                if fault_plan is not None:
                    action = fault_plan.decide("stream.paths")
                    if action is not None and action.kind == "explode":
                        raise PathExplosionError(
                            "injected mid-stream path explosion "
                            f"(after {path_count} paths)"
                        )
                buffer.append(path)
                path_count += 1
                note_buffer()
                if len(buffer) >= chunk_size:
                    flush()
            if buffer:
                flush()
            dispatch.drain()

        contributions = _gathered(dispatch.results)
        if contribution_sink is not None:
            contribution_sink.extend(contributions)
        if report is not None:
            report.path_count += path_count
            report.truncated_paths += sum(int(c.truncated) for c in contributions)
            if dispatch.done_at:
                report.first_result_seconds = min(dispatch.done_at) - start
            report.peak_path_buffer = max(report.peak_path_buffer, self.peak_path_buffer)
        return reduce_contributions(contributions, target_tuple, report)


# ----------------------------------------------------------------------
# The chunk dispatcher
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ChunkJob:
    """One unit of dispatch: a selection of paths analysed under one options value.

    ``paths`` is the sequence the selection indexes: a compiled program's
    whole path set, whose cached table, arena segment and queue resource
    serve the job (``execution`` is set), or one streamed chunk, which
    carries its own paths (``execution`` is ``None``).  The selection is
    ``[start, stop)``, or the explicit ``indices`` list when given.
    """

    index: int
    paths: Sequence[SymbolicPath]
    start: int
    stop: int
    options: AnalysisOptions
    specs: tuple[AnalyzerSpec, ...]
    indices: Optional[tuple[int, ...]] = None
    execution: Optional[SymbolicExecutionResult] = None

    def selected(self) -> tuple[SymbolicPath, ...]:
        """The job's paths as objects (pickled payloads and the ladder)."""
        if self.indices is not None:
            return tuple(self.paths[index] for index in self.indices)
        return tuple(self.paths[self.start : self.stop])

    @property
    def size(self) -> int:
        return len(self.indices) if self.indices is not None else self.stop - self.start


class _Dispatch:
    """One query's chunk jobs on one executor: submit, collect, degrade.

    :meth:`submit` sends a job to the executor's backend — one private step
    per backend: in-process (serial, thread, and ``inline`` runs of work
    too small to fan out) over the compiled program's own table, a process
    pool with an :class:`ArenaChunkRef` or a pickled :class:`ChunkPayload`,
    or a socket work-queue job.  :meth:`wait_some` / :meth:`drain` collect
    the futures.  ``results`` gathers ``(index, contributions)`` pairs in
    completion order; callers sort them by job index, so merged records
    never depend on timing.  Used as a context manager, it releases the
    per-chunk resources (streamed arena segments, queue resources) of jobs
    still in flight when the query fails.

    A socket job that runs out of attempts and a queue that stays
    workerless past ``io_timeout`` both end in :meth:`_degrade`, the one
    home of the socket → local process → serial ladder.
    """

    def __init__(
        self,
        executor: ParallelAnalysisExecutor,
        targets: tuple[Interval, ...],
        options: AnalysisOptions,
        inline: bool = False,
    ) -> None:
        self.executor = executor
        self.targets = targets
        kind = "serial" if inline else executor.kind
        self.pool = executor._ensure_pool() if kind in ("thread", "process") else None
        self.queue = executor._ensure_queue() if kind == "socket" else None
        #: The socket tier's "job lost" error; pool futures raise only
        #: worker exceptions, which always propagate.
        self._lost: tuple = ()
        if self.queue is not None:
            from ..service.protocol import WorkerLost

            self._lost = (WorkerLost,)
        #: Absolute deadline derived from ``options.time_budget``, shared by
        #: every socket job of the query.
        self.deadline = (
            time.monotonic() + options.time_budget if options.time_budget is not None else None
        )
        #: Called after every batch of results lands (the streamed
        #: first-bound hook).
        self.on_result: Optional[Callable[[], None]] = None
        self.inflight: dict[concurrent.futures.Future, _ChunkJob] = {}
        self.releases: dict[concurrent.futures.Future, Callable[[], None]] = {}
        self.results: list[tuple[int, list[PathContribution]]] = []
        #: Completion timestamps, recorded by done-callbacks the moment a
        #: worker finishes (collecting a result later would overstate
        #: time-to-first-bound when the in-flight cap is never reached).
        self.done_at: list[float] = []
        #: Set once the ladder fires: later jobs skip the dead socket tier.
        self.socket_dead = False
        self._workerless_since: Optional[float] = None

    def __enter__(self) -> "_Dispatch":
        return self

    def __exit__(self, *exc_info) -> None:
        # On an error, drop the outstanding futures and release their
        # per-chunk resources (attached workers keep their mappings until
        # they evict them; the kernel reclaims the memory with the last
        # detach).  The pool itself stays usable for later queries.
        self.inflight.clear()
        while self.releases:
            _, release = self.releases.popitem()
            release()

    # -- submit --------------------------------------------------------
    def submit(self, job: _ChunkJob) -> None:
        executor = self.executor
        executor.chunks_dispatched += 1
        executor.paths_analyzed += job.size
        if self.queue is not None:
            if self.socket_dead:
                self._degrade([job], "socket backend previously lost")
            else:
                self._track(job, *self._submit_socket(job))
        elif self.pool is None:
            result = self._run_in_process(job, self._table(job))
            self.done_at.append(time.perf_counter())
            self._deliver([result])
        elif executor.kind == "thread":
            self._track(job, self.pool.submit(self._run_in_process, job, self._table(job)), None)
        else:
            self._track(job, *(self._submit_arena(job) or self._submit_pickle(job)))

    @staticmethod
    def _table(job: _ChunkJob):
        # Resolved in the parent, so thread workers never race to build it.
        return job.execution.table() if job.execution is not None else None

    def _run_in_process(self, job: _ChunkJob, table) -> tuple[int, list[PathContribution]]:
        """The in-process step: the compiled program's own table, shared with
        every other query on it (including its per-table memos), or a streamed
        chunk's direct path references.  Nothing is interned, pickled or
        published."""
        analyzers = resolve_analyzers(job.options)
        if table is None:
            return job.index, _analyze_paths_resolved(job.paths, self.targets, job.options, analyzers)
        return job.index, analyze_table_slice(
            table, job.start, job.stop, self.targets, job.options, analyzers,
            paths=job.paths, indices=job.indices,
        )

    def _submit_arena(self, job: _ChunkJob):
        """Process step, arena transport: a tiny index-range reference into a
        shared-memory table (``None`` when the transport is unavailable)."""
        executor = self.executor
        if job.options.effective_transport != "arena" or executor._arena_degraded:
            return None
        release = None
        if job.execution is not None:
            # Written (or cache hit) once per path set, the context once per
            # query shape.
            segment = executor._arena_for(job.execution)
            context = (
                executor._context_for(self.targets, job.options, job.specs)
                if segment is not None else None
            )
        else:
            # A streamed chunk publishes its own short-lived segment.
            if not shared_memory_available():
                return None
            context = executor._context_for(self.targets, job.options, job.specs)
            segment = create_arena_segment(job.paths) if context is not None else None
            if segment is None:
                executor._arena_degraded = True  # degrade once, stay degraded
            else:
                release = segment.unlink
        if segment is None or context is None:
            return None
        ref = ArenaChunkRef(
            index=job.index,
            segment=segment.name,
            nbytes=segment.nbytes,
            start=job.start,
            stop=job.stop,
            context=context.name,
            indices=job.indices,
        )
        return self.pool.submit(analyze_arena_chunk, ref), release

    def _submit_pickle(self, job: _ChunkJob):
        """Process step, pickle transport: the paths as an interned object graph.

        Each job interns against a fresh memo: pickle memoises per payload,
        so a shared memo would not shrink payloads, it would only retain
        every unique expression of the query in the parent.
        """
        payload = ChunkPayload(
            index=job.index,
            paths=intern_paths(job.selected(), {}),
            targets=self.targets,
            options=job.options,
            specs=job.specs,
        )
        return self.pool.submit(analyze_chunk, payload), None

    def _submit_socket(self, job: _ChunkJob):
        """Socket step: an index job against content-addressed resources."""
        executor, queue = self.executor, self.queue
        release = None
        if job.execution is not None:
            table = executor._socket_table_key(job.execution, queue)
        else:
            # A streamed chunk registers its own small table image.
            from ..service.protocol import hash_bytes

            image = encode_paths(job.paths)
            table = hash_bytes(image)
            queue.add_resource(table, image, "table")
            release = functools.partial(queue.discard_resource, table)
        context = executor._socket_context_key(queue, self.targets, job.options, job.specs)
        future = queue.submit_chunk(
            index=job.index,
            table=table,
            start=job.start,
            stop=job.stop,
            context=context,
            timeout=job.options.job_timeout,
            retries=job.options.job_retries,
            indices=job.indices,
            deadline=self.deadline,
        )
        return future, release

    def _track(self, job: _ChunkJob, future, release) -> None:
        self.inflight[future] = job
        if release is not None:
            self.releases[future] = release
        future.add_done_callback(lambda _: self.done_at.append(time.perf_counter()))

    def _deliver(self, results: list) -> None:
        if results:
            self.results.extend(results)
            if self.on_result is not None:
                self.on_result()

    # -- collect -------------------------------------------------------
    def drain(self) -> None:
        while self.inflight:
            self.wait_some()

    def wait_some(self) -> None:
        """Collect at least one in-flight job.

        Pool futures always complete, but a socket job's timeout only arms
        once a worker picks it up, so a queue that has lost every worker
        would pend forever: the socket wait polls, grants a workerless queue
        ``io_timeout`` seconds of reconnect grace (workers may be
        mid-reconnect), then strands everything in flight down the ladder.
        """
        while self.inflight:
            done, _ = concurrent.futures.wait(
                tuple(self.inflight),
                timeout=0.25 if self.queue is not None else None,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if done:
                self._workerless_since = None
                for future in done:
                    if future in self.inflight:  # not stranded by an earlier collect
                        self._collect(future)
                return
            if self.queue.worker_count() > 0:
                self._workerless_since = None
                continue
            now = time.monotonic()
            if self._workerless_since is None:
                self._workerless_since = now
            elif now - self._workerless_since >= self.executor.io_timeout:
                self._degrade(
                    [],
                    f"work queue has had no connected workers for "
                    f"{self.executor.io_timeout:.1f}s",
                )
                return

    def _collect(self, future: concurrent.futures.Future) -> None:
        job = self.inflight.pop(future)
        release = self.releases.pop(future, None)
        try:
            result = future.result()  # re-raises worker exceptions
        except self._lost as error:
            # The socket tier is out of attempts (or out of workers).
            self._degrade([job], str(error))
            return
        finally:
            if release is not None:
                release()
        self._deliver([result])

    def _degrade(self, lost: list[_ChunkJob], reason: str) -> None:
        """The degradation ladder: finish the socket backend's work locally.

        ``lost`` joins every job still in flight: finished ones are
        salvaged, the rest are cancelled and re-run on the lazily created
        local process pool — serially when that pool is broken too — and
        the rest of the query skips the socket tier.  Every rung runs the
        same chunk body (:func:`analyze_chunk`) and results merge in
        canonical order, so a degraded query's bounds are **bit-identical**
        to a fault-free run; only latency suffers.
        """
        self.socket_dead = True
        leftovers = list(lost)
        results = []
        for future, job in list(self.inflight.items()):
            del self.inflight[future]
            release = self.releases.pop(future, None)
            future.cancel()
            if future.done() and not future.cancelled() and future.exception() is None:
                results.append(future.result())
            else:
                leftovers.append(job)
            if release is not None:
                release()
        if leftovers:
            executor = self.executor
            warnings.warn(
                f"socket backend degraded ({reason}); re-dispatching "
                f"{len(leftovers)} chunk(s) on the local process pool "
                "(falling back to serial if that fails too) — bounds are "
                "unaffected, only latency",
                RuntimeWarning,
                stacklevel=4,
            )
            executor.degraded_chunks += len(leftovers)
            payloads = [
                ChunkPayload(job.index, job.selected(), self.targets, job.options, job.specs)
                for job in leftovers
            ]
            local = None
            pool = executor._ensure_fallback_pool()
            if pool is not None:
                try:
                    futures = [pool.submit(analyze_chunk, payload) for payload in payloads]
                    local = [future.result() for future in futures]
                    executor.degraded_to = executor.degraded_to or "process"
                except Exception:  # noqa: BLE001 - broken pool: take the last rung
                    local = None
            if local is None:
                executor.degraded_to = "serial"
                local = [analyze_chunk(payload) for payload in payloads]
            results.extend(local)
        self._deliver(results)
