"""Streaming symbolic→analysis pipeline: time-to-first-bound and memory.

The batch engine materialises *all* symbolic paths before a single analyzer
runs; the streaming engine (``AnalysisOptions(stream=True)``) pipelines the
iterative explorer into the analysis phase, so the first path contributions
are available while exploration is still enumerating and the full path set is
never resident.  This driver measures, for the pedestrian walk and a
recursive geometric counter at escalating fixpoint depths:

* **total wall-clock** of a cold batch query vs a cold streamed query,
* **time-to-first-bound** (``AnalysisReport.first_result_seconds``) of the
  streamed run, asserted strictly below the batch total,
* **peak path buffer** (``AnalysisReport.peak_path_buffer``) of the streamed
  run, asserted far below the materialised path count, and
* peak RSS of the process (informational — ``ru_maxrss`` is monotone).

It always asserts **bit-equality** of streamed and batch bounds — in
``REPRO_BENCH_TINY`` smoke mode that equality check is the whole point of the
CI job; the timing assertions are reserved for full fidelity.

A second test pins the vectorised score-integration sweep against the scalar
per-combination loop (its fallback and reference): faster on a
≥1k-combination workload, at identical bounds.
"""

from __future__ import annotations

import contextlib
import resource
import time
from unittest import mock

from repro.analysis import AnalysisOptions, AnalysisReport, Model, linear_analyzer
from repro.analysis.linear_analyzer import analyze_path_linear
from repro.intervals import Interval
from repro.lang import builder as b
from repro.models import pedestrian_program
from repro.symbolic import symbolic_paths

from bench_utils import TINY, emit, scaled


def _geometric_program(p_stop: float = 0.5):
    loop = b.fix(
        "loop",
        "count",
        b.choice(p_stop, b.var("count"), b.app(b.var("loop"), b.add(b.var("count"), 1.0))),
    )
    return b.app(loop, 0.0)


_SCENARIOS = [
    ("pedestrian", pedestrian_program, scaled((4, 5, 6), (3, 4)), Interval(0.0, 1.0)),
    ("geometric", _geometric_program, scaled((8, 12), (5, 6)), Interval(-0.5, 2.5)),
]
_SCORE_SPLITS = scaled(8, 4)


def _run_batch(build, depth, target):
    options = AnalysisOptions(
        max_fixpoint_depth=depth, score_splits=_SCORE_SPLITS, workers=1, executor="serial"
    )
    model = Model(build(), options)
    start = time.perf_counter()
    bounds = model.bounds([target, Interval.reals()])
    seconds = time.perf_counter() - start
    return bounds, seconds, model.compile(options).path_count


def _run_streaming(build, depth, target):
    options = AnalysisOptions(
        max_fixpoint_depth=depth,
        score_splits=_SCORE_SPLITS,
        workers=1,
        executor="serial",
        stream=True,
    )
    report = AnalysisReport()
    model = Model(build(), options)
    start = time.perf_counter()
    bounds = model.bounds([target, Interval.reals()], report=report)
    seconds = time.perf_counter() - start
    return bounds, seconds, report


def test_streaming_pipeline(bench_once):
    lines = []
    records = []

    def run_all():
        for name, build, depths, target in _SCENARIOS:
            for depth in depths:
                batch, batch_seconds, path_count = _run_batch(build, depth, target)
                streamed, stream_seconds, report = _run_streaming(build, depth, target)

                # The CI gate: streamed bounds must be bit-identical to batch.
                for batch_bound, stream_bound in zip(batch, streamed):
                    assert stream_bound.lower == batch_bound.lower, (name, depth)
                    assert stream_bound.upper == batch_bound.upper, (name, depth)

                ttfb = report.first_result_seconds
                lines.append(
                    f"{name} depth={depth} ({path_count} paths): "
                    f"batch {batch_seconds:.3f}s | streamed {stream_seconds:.3f}s, "
                    f"first bound after {ttfb:.4f}s, peak path buffer {report.peak_path_buffer} "
                    f"| bounds bit-identical"
                )
                records.append(
                    {
                        "model": name,
                        "depth": depth,
                        "path_count": path_count,
                        "batch_seconds": batch_seconds,
                        "stream_seconds": stream_seconds,
                        "time_to_first_bound": ttfb,
                        "peak_path_buffer": report.peak_path_buffer,
                        "lower": streamed[0].lower,
                        "upper": streamed[0].upper,
                        "bit_identical": True,
                    }
                )

                assert ttfb is not None
                if not TINY:
                    # Streaming delivers its first bound while batch is still
                    # exploring: strictly below the batch total.
                    assert ttfb < batch_seconds, (name, depth, ttfb, batch_seconds)
                    # Serial streaming folds path-by-path: O(1) resident paths.
                    assert report.peak_path_buffer <= 1
                    assert report.peak_path_buffer < max(2, path_count)

    bench_once(run_all)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append(f"process peak RSS (monotone, informational): {peak_rss_kb} kB")
    emit("streaming_pipeline", lines, data={"runs": records, "peak_rss_kb": peak_rss_kb})


def test_streaming_arena_transport_bit_identical(bench_once):
    """Streamed process dispatch over the arena transport matches batch bounds.

    The streaming dispatcher publishes one short-lived shared-memory arena
    segment per chunk instead of pickling the chunk's path graph; like every
    other engine configuration, the resulting bounds must be **bit-identical**
    to a serial batch run — this is part of the CI smoke gate.
    """
    name, build, depths, target = _SCENARIOS[0]
    depth = depths[0]
    batch, _, _ = _run_batch(build, depth, target)

    def run_streamed():
        options = AnalysisOptions(
            max_fixpoint_depth=depth,
            score_splits=_SCORE_SPLITS,
            workers=2,
            executor="process",
            chunk_size=4,
            stream=True,
            payload_transport="arena",
        )
        with Model(build(), options) as model:
            return model.bounds([target, Interval.reals()])

    streamed = bench_once(run_streamed)
    for batch_bound, stream_bound in zip(batch, streamed):
        assert stream_bound.lower == batch_bound.lower, (name, depth)
        assert stream_bound.upper == batch_bound.upper, (name, depth)


def test_vectorized_integration(bench_once):
    """Vectorised score integration beats the scalar loop, at identical bounds.

    Two linear atoms under piecewise (``max(0, ·)``) scores: the product grid
    has ``score_splits²`` combinations, most carrying weight exactly zero —
    the vectorised sweep computes all weights at once and prunes zero-weight
    combinations before any constraint rows or volume computations.
    """
    splits = scaled(40, 8)
    program = b.let(
        "x",
        b.sample(),
        b.let(
            "y",
            b.sample(),
            b.seq(
                b.score(b.maximum(0.0, b.sub(b.add(b.var("x"), b.var("y")), 1.5))),
                b.seq(
                    b.score(
                        b.maximum(0.0, b.sub(b.add(b.var("x"), b.mul(2.0, b.var("y"))), 2.2))
                    ),
                    b.add(b.var("x"), b.var("y")),
                ),
            ),
        ),
    )
    path = symbolic_paths(program).paths[0]
    targets = [Interval(0.0, 1.0), Interval.reals()]

    options = AnalysisOptions(score_splits=splits, max_score_combinations=8_192)

    def timed(vectorized: bool):
        # The scalar reference: the sweep reports "unsupported", so every
        # combination takes the per-combination loop.
        sweep = (
            contextlib.nullcontext() if vectorized
            else mock.patch.object(linear_analyzer, "_vectorized_factors", lambda *a, **k: None)
        )
        with sweep:
            start = time.perf_counter()
            result = analyze_path_linear(path, targets, options)
            return result, time.perf_counter() - start

    def run_both():
        scalar, scalar_seconds = timed(False)
        vectorised, vectorised_seconds = timed(True)
        assert vectorised == scalar  # bit-identical contributions
        return scalar_seconds, vectorised_seconds

    scalar_seconds, vectorised_seconds = bench_once(run_both)
    speedup = scalar_seconds / max(vectorised_seconds, 1e-9)
    lines = [
        f"score integration over {splits * splits} atom-range combinations:",
        f"scalar loop {scalar_seconds:.3f}s | vectorised sweep {vectorised_seconds:.3f}s "
        f"(speedup ×{speedup:.2f}), bounds bit-identical",
    ]
    emit(
        "vectorized_integration",
        lines,
        data={
            "combinations": splits * splits,
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vectorised_seconds,
            "speedup": speedup,
        },
    )
    if not TINY:
        assert splits * splits >= 1_000
        assert speedup > 1.0, f"vectorised sweep slower than scalar (×{speedup:.2f})"
