"""The repository benchmark: guaranteed-bounds queries in a closed loop.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends each query only after the previous one returned.  Query
targets (and the paper suite's pass order) come from ``--seed`` alone; every
answer is checked against an independent reference (exact enumeration or
seeded importance sampling) outside the timed region.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates traced and untraced
iterations and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it hold the full record (route, host, tails, misses).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import bootstrap

#: Set-up probes per run, half before and half after the loop, so that
#: ``setup_s`` (their median) does not rest on one moment of host speed.
SETUP_SAMPLES = 4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python plus NumPy computation (a drift gauge)."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for index in range(1, 20_001):
        total += math.sqrt(index)
    matrix = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000.0
    total += float((matrix @ matrix).sum())
    total += float(np.sort(np.sin(np.arange(50_000.0)))[0])
    return time.perf_counter() - start


def measure_setup(workload: str, count: int) -> list[float]:
    """Process start to ready of ``count`` fresh set-up probes, one after another."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload], stdout=subprocess.PIPE, text=True
        ) as process:
            line = process.stdout.readline()
            ready = time.perf_counter()
            process.stdout.read()
            code = process.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(ready - start)
    return samples


def median(values: list[float]) -> float:
    """The median, or 0 when a workload produced no sample (every query failed)."""
    return statistics.median(values) if values else 0.0


def tail(values: list[float], percentile: int) -> dict:
    import numpy as np

    value = float(np.percentile(values, percentile)) if values else 0.0
    beyond = sum(1 for sample in values if sample > value)
    return {
        "percentile": percentile,
        "value": value,
        "samples": len(values),
        "beyond": beyond,
        "resolved": beyond >= 10,
    }


def host_metadata() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb(stats) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + stats.peak_worker_rss_mb


class Loop:
    """The closed loop: iterations of timed, checked queries until the deadline."""

    def __init__(self, workload, rng, seconds: float, tracer=None) -> None:
        import workloads

        self.workload = workload
        self.rng = rng
        self.seconds = seconds
        self.tracer = tracer
        self.stats = workloads.IterationStats()
        self.records: list[dict] = []
        #: (seconds, ran to the end) per iteration.
        self.iterations: list[tuple[float, bool]] = []
        self.kernel: list[float] = []
        self.misses: list[str] = []

    def run(self) -> None:
        from repro.analysis import AnalysisReport

        deadline = time.perf_counter() + self.seconds
        # The first iterations always complete (they fix mean_bound_width);
        # a traced run needs one traced and one untraced iteration.
        minimum = max(self.workload.width_iterations, 2 if self.tracer is not None else 1)
        iteration = 0
        while iteration < minimum or time.perf_counter() < deadline:
            traced = self.tracer is not None and iteration % 2 == 0
            if self.tracer is not None:
                self.tracer.enabled = traced
            steps = self.workload.iteration(self.rng, self.stats)
            elapsed = 0.0
            complete = False
            while True:
                if iteration >= minimum and time.perf_counter() >= deadline:
                    steps.close()
                    break
                started = time.perf_counter()
                try:
                    step = next(steps)
                except StopIteration:
                    elapsed += time.perf_counter() - started
                    complete = True
                    break
                elapsed += time.perf_counter() - started
                record = {"iteration": iteration, "kind": step.kind, "label": step.label, "traced": traced}
                report = AnalysisReport() if traced else None
                if traced:
                    self.tracer.kind = step.kind
                    before = self.tracer.snapshot()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    started = time.perf_counter()
                    try:
                        if traced:
                            with self.tracer.span("model"):
                                answer = step.call(report)
                        else:
                            answer = step.call(report)
                        error = None
                    except Exception as exc:  # a failed query is a counted failure
                        answer, error = None, f"{type(exc).__name__}: {exc}"
                    record["seconds"] = time.perf_counter() - started
                elapsed += record["seconds"]
                if traced:
                    record["trace"] = (before, self.tracer.snapshot())
                    record["refine_rounds"] = report.refine_rounds
                    record["refine_paths"] = report.refine_paths
                degraded = [str(w.message) for w in caught if "degrad" in str(w.message).lower()]
                miss = error or (step.check(answer) if answer is not None else None)
                if degraded and miss is None:
                    miss = "degraded: " + "; ".join(degraded)
                record["ok"] = miss is None
                record["width"] = step.width(answer) if answer is not None else None
                if miss is not None:
                    self.misses.append(f"{step.kind} {step.label}: {miss}")
                    print(f"MISS {step.kind} {step.label}: {miss}", flush=True)
                self.records.append(record)
                self.kernel.append(reference_kernel())
                if error is not None:
                    steps.close()
                    break
            self.iterations.append((elapsed, complete))
            iteration += 1

    # ------------------------------------------------------------------
    def _measured(self) -> set[int]:
        # Latencies come from iterations that ran to the end, so every run
        # weighs the workload's queries alike (a failed query ends its
        # iteration early; with no complete iteration, all of them count).
        complete = {index for index, (_, done) in enumerate(self.iterations) if done}
        return complete or set(range(len(self.iterations)))

    def passes(self) -> list[float]:
        measured = self._measured()
        return [seconds for index, (seconds, _) in enumerate(self.iterations) if index in measured]

    def times(self, kind: str, traced=None) -> list[float]:
        measured = self._measured()
        return [
            r["seconds"] for r in self.records
            if r["kind"] == kind and r["iteration"] in measured
            and (traced is None or r["traced"] == traced)
        ]

    def mean_bound_width(self) -> float:
        # The first iterations always complete, so their queries are fixed by
        # the seed alone: the metric is deterministic for a given seed.
        widths = [
            r["width"] for r in self.records
            if r["iteration"] < self.workload.width_iterations and r["width"] is not None
        ]
        return sum(widths) / len(widths) if widths else 1.0


def end_to_end(loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    percentile = loop.workload.tail_percentile
    cold, warm = loop.times("cold"), loop.times("warm")
    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if not r["ok"])
    tails = {"cold": tail(cold, percentile), "warm": tail(warm, percentile)}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_query_s": (median(cold), "s"),
        "cold_query_tail_s": (tails["cold"]["value"], "s"),
        "warm_query_s": (median(warm), "s"),
        "warm_query_tail_s": (tails["warm"]["value"], "s"),
        "pass_s": (median(loop.passes()), "s"),
        "mean_bound_width": (loop.mean_bound_width(), "probability"),
        "success_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb(loop.stats), "MB"),
    }
    refine = loop.times("refine")
    detail = {
        "setup_samples": setup,
        "tails": tails,
        "samples": {"cold": len(cold), "warm": len(warm), "refine": len(refine), "passes": len(loop.passes())},
        "refine_query_s": statistics.median(refine) if refine else None,
        "warm_query_spread_s": (
            {"min": min(warm), "quartiles": statistics.quantiles(warm, n=4), "max": max(warm)}
            if len(warm) >= 2 else None
        ),
        "host.ref_kernel_s": statistics.median(loop.kernel),
        "slowest_queries": slowest(loop),
    }
    return metrics, detail


def slowest(loop: Loop, count: int = 5) -> list:
    """The query labels with the highest median time (where the tail comes from)."""
    by_label: dict = {}
    for record in loop.records:
        by_label.setdefault((record["kind"], record["label"]), []).append(record["seconds"])
    ranked = sorted(by_label.items(), key=lambda item: -statistics.median(item[1]))
    return [
        {"kind": kind, "label": label, "median_s": statistics.median(times), "samples": len(times)}
        for (kind, label), times in ranked[:count]
    ]


def per_layer(loop: Loop, tracer) -> tuple[dict, dict]:
    from tracing import KINDS, Tracer, covered_seconds

    traced = [r for r in loop.records if r["traced"]]
    queries = max(1, len(traced))
    refines = [r for r in traced if r["kind"] == "refine"]

    def total(name: str, kinds=KINDS, sides=("parent", "worker")) -> float:
        value = 0.0
        for record in traced:
            before, after = record["trace"]
            for kind in kinds:
                for side in sides:
                    value += Tracer.read(after, kind, side, name) - Tracer.read(before, kind, side, name)
        return value

    def per_query(name: str) -> float:
        return total(name) / queries

    parent_wait = sum(end - start for start, end in tracer.parallel_spans)
    covered = covered_seconds(tracer.parallel_spans, tracer.worker_intervals())
    volume_calls = total("polytope.volume.calls")
    lookups = total("geometry.volume_lookups")
    pool_starts = total("analysis.parallel.pool_start.calls")

    def refine_mean(values) -> float:
        return sum(values) / len(refines) if refines else 0.0

    refine_times = loop.times("refine", traced=False)
    metrics = {
        "symbolic.explore_s": (per_query("symbolic.explore.total_s"), "s/query"),
        "symbolic.paths": (per_query("symbolic.paths"), "count/query"),
        "typesystem.infer_calls": (per_query("typesystem.infer.calls"), "count/query"),
        "typesystem.infer_s": (per_query("typesystem.infer.total_s"), "s/query"),
        "symbolic.table_build_s": (per_query("symbolic.table_build.total_s"), "s/query"),
        "symbolic.table_bytes": (per_query("symbolic.table_bytes"), "B/query"),
        "analysis.engine.self_s": (per_query("analysis.engine.self_s"), "s/query"),
        "analysis.linear.paths": (per_query("analysis.linear.paths"), "count/query"),
        "analysis.linear.self_s": (per_query("analysis.linear.self_s"), "s/query"),
        "polytope.volume_calls": (per_query("polytope.volume.calls"), "count/query"),
        "polytope.volume_s": (per_query("polytope.volume.total_s"), "s/query"),
        "polytope.chebyshev_calls": (per_query("polytope.chebyshev.calls"), "count/query"),
        "polytope.chebyshev_s": (per_query("polytope.chebyshev.total_s"), "s/query"),
        "polytope.lp_prepare_calls": (per_query("polytope.lp_prepare.calls"), "count/query"),
        "polytope.lp_prepare_s": (per_query("polytope.lp_prepare.total_s"), "s/query"),
        "polytope.lp_solves": (per_query("polytope.lp_solve.calls"), "count/query"),
        "polytope.lp_solve_s": (per_query("polytope.lp_solve.total_s"), "s/query"),
        "polytope.geometry_hit_ratio": (1.0 - volume_calls / lookups if lookups else 0.0, "ratio"),
        "analysis.box.paths": (per_query("analysis.box.paths"), "count/query"),
        "analysis.box.self_s": (per_query("analysis.box.self_s"), "s/query"),
        "analysis.parallel.pool_start_s": (
            total("analysis.parallel.pool_start.total_s") / pool_starts if pool_starts else 0.0, "s/pool",
        ),
        "analysis.parallel.chunks": (per_query("analysis.parallel.worker.calls"), "count/query"),
        "analysis.parallel.worker_busy_s": (per_query("analysis.parallel.worker.total_s"), "s/query"),
        "analysis.parallel.dispatch_s": ((parent_wait - covered) / queries, "s/query"),
        "analysis.parallel.degraded_chunks": (loop.stats.degraded_chunks / queries, "count/query"),
        "analysis.refine.rounds": (refine_mean([r["refine_rounds"] for r in refines]), "count/refine"),
        "analysis.refine.paths": (refine_mean([r["refine_paths"] for r in refines]), "count/refine"),
        "analysis.refine.self_s": (
            total("analysis.refine.self_s", kinds=("refine",)) / len(refines) if refines else 0.0,
            "s/refine",
        ),
        "analysis.refine.query_s": (median(refine_times), "s"),
        "model.compile_cache_hits": (loop.stats.compile_cache_hits / max(1, len(loop.records)), "count/query"),
        "host.ref_kernel_s": (statistics.median(loop.kernel), "s"),
        "trace.overhead_ratio": (overhead_ratio(loop), "ratio"),
    }
    return metrics, {"dominance": dominance(loop, traced)}


def overhead_ratio(loop: Loop) -> float:
    """Median over query labels of traced ÷ untraced median query time."""
    ratios = []
    keys = {(r["kind"], r["label"]) for r in loop.records}
    for kind, label in sorted(keys):
        traced = [r["seconds"] for r in loop.records if (r["kind"], r["label"]) == (kind, label) and r["traced"]]
        plain = [r["seconds"] for r in loop.records if (r["kind"], r["label"]) == (kind, label) and not r["traced"]]
        if traced and plain:
            ratios.append(statistics.median(traced) / statistics.median(plain))
    return median(ratios)


def layer_self_times(record: dict, side: str) -> dict:
    """Self seconds per layer on one process side for one traced query."""
    from tracing import KINDS, SPAN_LAYER, Tracer

    before, after = record["trace"]
    layers: dict = {}
    for span, layer in SPAN_LAYER.items():
        name = f"{span}.self_s"
        spent = sum(Tracer.read(after, k, side, name) - Tracer.read(before, k, side, name) for k in KINDS)
        if spent:
            layers[layer] = layers.get(layer, 0.0) + spent
    return layers


def dominance(loop: Loop, traced: list[dict]) -> list[dict]:
    """For each prediction: do the predicted layers together outweigh every other layer?

    The record also names the single largest layer, so a prediction that
    holds only jointly stays visible.
    """
    results = []
    for prediction in loop.workload.predictions:
        chosen = [
            r for r in traced
            if r["kind"] in prediction.kinds and r["label"].startswith(prediction.label_prefix)
        ]
        if prediction.median and chosen:
            chosen = [sorted(chosen, key=lambda r: r["seconds"])[len(chosen) // 2]]
        layers: dict = {}
        for record in chosen:
            for layer, spent in layer_self_times(record, prediction.side).items():
                layers[layer] = layers.get(layer, 0.0) + spent
        whole = sum(layers.values()) or 1.0
        shares = {layer: round(spent / whole, 4) for layer, spent in sorted(layers.items(), key=lambda kv: -kv[1])}
        dominant = next(iter(shares), None)
        predicted_share = sum(shares.get(layer, 0.0) for layer in prediction.layers)
        other_share = max((v for k, v in shares.items() if k not in prediction.layers), default=0.0)
        results.append({
            "kinds": list(prediction.kinds),
            "side": prediction.side,
            "label_prefix": prediction.label_prefix,
            "queries": [r["label"] for r in chosen] if prediction.median else len(chosen),
            "predicted": list(prediction.layers),
            "dominant": dominant,
            "predicted_share": round(predicted_share, 4),
            "match": predicted_share > other_share,
            "self_share": shares,
        })
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cleared = bootstrap.prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload)
    workload.build()
    workload.load_references(bootstrap.CACHE)
    setup = [] if args.trace else measure_setup(args.workload, SETUP_SAMPLES // 2)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    loop = Loop(workload, np.random.default_rng(args.seed), args.seconds, tracer)
    try:
        loop.run()
    finally:
        if tracer is not None:
            tracer.close()
    if not args.trace:
        setup += measure_setup(args.workload, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    if args.trace:
        metrics, detail = per_layer(loop, tracer)
    else:
        metrics, detail = end_to_end(loop, setup)
    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if not r["ok"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "route": workload.route(),
        "environment_cleared": cleared,
        "host": host_metadata(),
        "misses": loop.misses,
        **detail,
    }
    print(json.dumps(record, indent=2, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
