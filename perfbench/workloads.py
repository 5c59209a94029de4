"""The benchmark's workloads: programs, seeded queries and independent references.

A workload is a closed loop of *iterations*.  :meth:`Workload.iteration`
is a generator: it builds fresh ``Model`` objects and yields one
:class:`Step` per query; ``run.py`` times each step's call, checks the answer
against the workload's reference, and closes the generator (which closes the
models) when the run's time is up.  Every query target is drawn from the
``rng`` that ``run.py`` seeds from ``--seed``; the references are computed once per
checkout from a fixed seed and cached under ``.perfbench_cache/``, outside
every timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.analysis import AnalysisOptions, AnalysisReport, Model, shared_memory_available
from repro.intervals import Interval
from repro.lang import builder as b
from repro.models import (
    binary_gmm_program,
    coin_bias_program,
    discrete_suite,
    max_of_normals_program,
    neals_funnel_program,
    pedestrian_bounded_program,
    pedestrian_program,
    probest_suite,
    recursive_suite,
)
from repro.polytope import highs
from repro.symbolic import fingerprint_term

#: Seed of every reference sampler (the ``rng`` fixture of ``benchmarks/``).
REFERENCE_SEED = 20220613

#: Slack of the exact-enumeration check (``bench_table2_exact_discrete.py``).
EXACT_SLACK = 1e-6


def pinned_options(**changes) -> AnalysisOptions:
    """``AnalysisOptions`` with every environment-defaulted field set explicitly."""
    fields = dict(
        workers=1,
        executor=None,
        stream=False,
        payload_transport=None,
        columnar=True,
        socket_endpoint=None,
        refine="off",
    )
    fields.update(changes)
    return AnalysisOptions(**fields)


@dataclass(frozen=True)
class Step:
    """One query of an iteration.

    ``call(report)`` runs the query and returns its answer; ``check(answer)``
    returns ``None`` when the answer contains the reference, else a
    description of the miss; ``width(answer)`` is the mean width of the
    answer's normalised bounds.
    """

    kind: str
    label: str
    call: Callable[[Optional[AnalysisReport]], object]
    check: Callable[[object], Optional[str]]
    width: Callable[[object], float]


@dataclass(frozen=True)
class Prediction:
    """Layers predicted to take, together, more self time than any other layer.

    The scope is the traced queries of ``kinds`` whose label starts with
    ``label_prefix`` — or, with ``median``, the single median-time one — and
    ``side`` is ``"parent"`` (the client process) or ``"worker"`` (pool
    workers).
    """

    kinds: tuple[str, ...]
    layers: tuple[str, ...]
    label_prefix: str = ""
    median: bool = False
    side: str = "parent"


@dataclass
class IterationStats:
    """Per-run counters the workloads read off their models before closing them."""

    compile_cache_hits: int = 0
    degraded_chunks: int = 0
    peak_worker_rss_mb: float = 0.0


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


class SampleReference:
    """Weighted importance samples of a program: the reference for any target."""

    def __init__(self, values: np.ndarray, weights: np.ndarray, tolerance: float, resample: int) -> None:
        self.values = values
        self.weights = weights
        self.tolerance = tolerance
        order = np.argsort(values, kind="stable")
        self._sorted = values[order]
        self._cumulative = np.cumsum(weights[order])
        rng = np.random.default_rng(REFERENCE_SEED + 1)
        self.resampled = values[rng.choice(len(values), size=resample, p=weights)]

    @classmethod
    def load(cls, cache: pathlib.Path, label: str, program, count: int, tolerance: float, resample: int):
        key = hashlib.blake2b(
            f"{fingerprint_term(program)}|{count}|{REFERENCE_SEED}".encode(), digest_size=8
        ).hexdigest()
        path = cache / f"{label.replace('/', '_')}-{key}.npz"
        if not path.exists():
            result = Model(program).sample(
                count, method="importance", rng=np.random.default_rng(REFERENCE_SEED)
            )
            cache.mkdir(parents=True, exist_ok=True)
            partial = path.with_suffix(f".{os.getpid()}.tmp.npz")
            np.savez(partial, values=result.values(), weights=result.normalised_weights())
            os.replace(partial, path)
        with np.load(path) as data:
            return cls(data["values"], data["weights"], tolerance, resample)

    def probability(self, target: Interval) -> float:
        inside = (self.values >= target.lo) & (self.values <= target.hi)
        return float(self.weights[inside].sum())

    def quantile(self, q: float) -> float:
        index = int(np.searchsorted(self._cumulative, q * self._cumulative[-1]))
        return float(self._sorted[min(index, len(self._sorted) - 1)])

    def draw_target(self, rng: np.random.Generator) -> Interval:
        low, high = sorted(rng.uniform(0.05, 0.95, size=2))
        return Interval(self.quantile(low), self.quantile(high))

    def check_probability(self, answer) -> Optional[str]:
        estimate = self.probability(answer.target)
        if answer.lower - self.tolerance <= estimate <= answer.upper + self.tolerance:
            return None
        return (
            f"bounds [{answer.lower:.6g}, {answer.upper:.6g}] on {answer.target} miss "
            f"the importance-sampling estimate {estimate:.6g} (tolerance {self.tolerance})"
        )

    def check_histogram(self, answer) -> Optional[str]:
        report = answer.validate_samples(self.resampled, tolerance=self.tolerance)
        if report.consistent:
            return None
        return (
            f"{report.violations} histogram buckets miss the importance-sampling "
            f"frequencies (worst excess {report.worst_excess:.4g}, tolerance {self.tolerance})"
        )


class ExactReference:
    """The exact posterior of a finite discrete program (``Model.exact``)."""

    def __init__(self, program) -> None:
        self.distribution = Model(program).exact()
        self.support = self.distribution.support()

    def draw_target(self, rng: np.random.Generator) -> Interval:
        # Endpoints sit halfway between support points, never on one.
        first, last = sorted(rng.integers(0, len(self.support), size=2))
        points = self.support
        low = (points[first - 1] + points[first]) / 2 if first > 0 else points[first] - 0.5
        high = (points[last] + points[last + 1]) / 2 if last + 1 < len(points) else points[last] + 0.5
        return Interval(low, high)

    def check_probability(self, answer) -> Optional[str]:
        exact = self.distribution.probability_of(answer.target)
        if answer.contains(exact, slack=EXACT_SLACK):
            return None
        return (
            f"bounds [{answer.lower:.9g}, {answer.upper:.9g}] on {answer.target} miss "
            f"the exact probability {exact:.9g} (slack {EXACT_SLACK})"
        )


class StratifiedTargets:
    """Seeded target intervals ``[lo, hi]`` within ``[low, high]``, stratified.

    Query cost depends on where the target cuts the program's paths, so a
    run that drew only cheap (or only costly) targets would read fast (or
    slow) for that reason alone.  Each endpoint falls in one of ``cells``
    equal cells; the cell pairs are visited in seeded random order, each
    once per cycle, with a uniform draw inside each cell.  Every run then
    sees nearly the same mix of targets, and the seed still fixes them all.
    """

    def __init__(self, low: float, high: float, cells: int = 3) -> None:
        self.low = low
        self.high = high
        self.cells = cells
        self._pending: list[tuple[int, int]] = []

    def draw(self, rng: np.random.Generator) -> Interval:
        if not self._pending:
            pairs = [(i, j) for i in range(self.cells) for j in range(self.cells)]
            self._pending = [pairs[k] for k in rng.permutation(len(pairs))]
        first, second = self._pending.pop()
        scale = (self.high - self.low) / self.cells
        ends = sorted(self.low + scale * (cell + rng.random()) for cell in (first, second))
        return Interval(float(ends[0]), float(ends[1]))


def probability_width(answer) -> float:
    return answer.upper - answer.lower


def histogram_width(answer) -> float:
    widths = [upper - lower for lower, upper in answer.normalised_bounds()]
    return sum(widths) / len(widths)


def _worker_peak_rss_mb() -> float:
    """Summed peak resident memory (VmHWM) of this process's live children."""
    total_kb = 0
    for task in pathlib.Path("/proc/self/task").iterdir():
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for pid in children:
            try:
                status = pathlib.Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base class: a named closed-loop query mix over fresh models."""

    name: str = ""
    #: Tail percentile reported for query latencies: the highest percentile
    #: that keeps at least ten samples beyond it at the benchmark's run
    #: length (see ``BENCHMARK.json``).
    tail_percentile: int = 75
    #: Leading iterations that always run to completion; ``mean_bound_width``
    #: is taken over their queries, so it depends on the seed alone.
    width_iterations: int = 1
    #: Which layers should dominate which of the workload's queries.
    predictions: tuple["Prediction", ...] = ()

    def build(self) -> None:
        """Build the workload's programs and options (part of ``setup_s``)."""
        raise NotImplementedError

    def start(self) -> None:
        """Finish set-up beyond building programs (the pooled workload's pool)."""

    def load_references(self, cache: pathlib.Path) -> None:
        raise NotImplementedError

    def iteration(self, rng: np.random.Generator, stats: IterationStats) -> Iterator[Step]:
        raise NotImplementedError

    def route(self) -> dict:
        raise NotImplementedError


def _route(options: AnalysisOptions) -> dict:
    return {
        "executor": options.effective_executor,
        "workers": options.workers,
        "transport": options.effective_transport if options.parallel else None,
        "columnar": options.columnar,
        "analyzers": list(options.analyzer_names),
        "refine": options.refine,
        "highs_kernel": highs.kernel_available(),
        "shared_memory": shared_memory_available() if options.parallel else None,
    }


class PedestrianWorkload(Workload):
    """The pedestrian walk (Ex. 1.1) at fixpoint depth 5 with 8 score splits.

    Each iteration builds a fresh ``Model``, runs one cold ``probability``
    query, ``warm_count`` warm queries on new targets and, when
    ``refine_query`` is set, one ``refine="gap"`` query on a new target.
    Targets are intervals in [0, 3] drawn from the seeded ``rng``.
    """

    depth = 5
    score_splits = 8
    width_iterations = 5
    tolerance = 0.03  # bench_fig7_pedestrian_bounds.py's importance-sampling tolerance
    reference_samples = 6_000

    def __init__(self, name: str, warm_count: int, predictions, refine_query: bool = False, **changes):
        self.name = name
        self.warm_count = warm_count
        self.predictions = predictions
        self.refine_query = refine_query
        self._changes = changes
        # One stratified sequence per query kind, so each kind's samples in
        # a run cover the strata evenly.
        self._targets = {kind: StratifiedTargets(0.0, 3.0) for kind in ("cold", "warm", "refine")}

    def build(self) -> None:
        self.program = pedestrian_program()
        self.options = pinned_options(
            max_fixpoint_depth=self.depth, score_splits=self.score_splits, **self._changes
        )
        self.refine_options = self.options.with_updates(refine="gap")

    def start(self) -> None:
        if self.options.parallel:
            # Starting the pool: one trivial pooled query.
            with Model(b.sample(), self.options) as model:
                model.probability(Interval(0.0, 0.5))

    def load_references(self, cache: pathlib.Path) -> None:
        self.reference = SampleReference.load(
            cache, "pedestrian", pedestrian_bounded_program(), self.reference_samples,
            self.tolerance, self.reference_samples,
        )

    def route(self) -> dict:
        return _route(self.options)

    def _step(self, kind: str, model: Model, rng, options=None) -> Step:
        target = self._targets[kind].draw(rng)
        return Step(
            kind=kind,
            label=kind,
            call=lambda report: model.probability(target, options, report),
            check=self.reference.check_probability,
            width=probability_width,
        )

    def iteration(self, rng, stats):
        model = Model(self.program, self.options)
        try:
            yield self._step("cold", model, rng)
            for _ in range(self.warm_count):
                yield self._step("warm", model, rng)
            if self.refine_query:
                yield self._step("refine", model, rng, self.refine_options)
            stats.compile_cache_hits += model.cache_info()["hits"]
            executor = model.executor_for()
            if executor is not None:
                stats.degraded_chunks += executor.degraded_chunks
                stats.peak_worker_rss_mb = max(stats.peak_worker_rss_mb, _worker_peak_rss_mb())
        finally:
            model.close()


@dataclass(frozen=True)
class Pair:
    """One (program, query) pair of the paper suite."""

    label: str
    program: object
    options: AnalysisOptions
    histogram: Optional[tuple[float, float, int]] = None
    target: Optional[Interval] = None
    #: ("exact",) or ("importance", samples, tolerance, resample count).
    reference: tuple = ("exact",)


class PaperSuiteWorkload(Workload):
    """The 40 (program, query) pairs of Tables 1–2 and Figs 5–6.

    Each pass visits every pair once in a seeded random order.  A pair runs
    its paper query cold on a fresh ``Model`` at the settings of its
    ``benchmarks/bench_*.py`` script, then one warm ``probability`` query on
    a seeded target on the same model.
    """

    name = "paper_suite"
    tail_percentile = 90
    predictions = (
        Prediction(("cold",), ("symbolic", "typesystem", "analysis.engine"), median=True),
        Prediction(("cold",), ("analysis.box",), label_prefix="fig5/"),
    )

    #: Fig. 6 per-model (fixpoint depth, score splits, box splits), as in
    #: ``benchmarks/bench_fig6_recursive_models.py``.
    FIG6_SETTINGS = {
        "cav-example-7": (10, 8, 6),
        "cav-example-5": (6, 12, 6),
        "add-uniform-with-counter": (6, 8, 6),
        "random-box-walk": (5, 8, 6),
        "growing-walk": (5, 12, 6),
        "param-estimation-recursive": (6, 12, 6),
    }

    def build(self) -> None:
        pairs: list[Pair] = []
        table1 = pinned_options(max_fixpoint_depth=12, splits_per_dimension=24)
        for entry in probest_suite():
            pairs.append(Pair(
                label=f"table1/{entry.identifier}", program=entry.program, options=table1,
                target=entry.target, reference=("importance", 3_000, 0.03, 3_000),
            ))
        for entry in discrete_suite():
            pairs.append(Pair(
                label=f"table2/{entry.name}", program=entry.program, options=pinned_options(),
                target=entry.query_target,
            ))
        box80 = pinned_options(splits_per_dimension=80, use_linear_semantics=False)
        box160 = pinned_options(splits_per_dimension=160, use_linear_semantics=False)
        fig5 = (
            ("coin_bias", coin_bias_program(), box80, (0.0, 1.0, 10)),
            ("max_of_normals", max_of_normals_program(), box80, (-3.0, 3.0, 12)),
            ("binary_gmm", binary_gmm_program(observation=1.0), box160, (-3.0, 3.0, 12)),
            ("neals_funnel", neals_funnel_program(), box80, (-9.0, 9.0, 12)),
        )
        for name, program, options, histogram in fig5:
            pairs.append(Pair(
                label=f"fig5/{name}", program=program, options=options, histogram=histogram,
                reference=("importance", 20_000, 0.02, 10_000),
            ))
        for entry in recursive_suite():
            depth, score_splits, box_splits = self.FIG6_SETTINGS[entry.name]
            options = pinned_options(
                max_fixpoint_depth=depth, score_splits=score_splits,
                splits_per_dimension=box_splits, max_boxes_per_path=4_000,
            )
            pairs.append(Pair(
                label=f"fig6/{entry.name}", program=entry.program, options=options,
                histogram=(entry.histogram_low, entry.histogram_high, min(entry.buckets, 8)),
                reference=("importance", 4_000, 0.04, 4_000),
            ))
        self.pairs = pairs

    def load_references(self, cache: pathlib.Path) -> None:
        self.references = {}
        for pair in self.pairs:
            if pair.reference[0] == "exact":
                self.references[pair.label] = ExactReference(pair.program)
            else:
                _, count, tolerance, resample = pair.reference
                self.references[pair.label] = SampleReference.load(
                    cache, pair.label, pair.program, count, tolerance, resample
                )

    def route(self) -> dict:
        routes = {json.dumps(_route(pair.options), sort_keys=True) for pair in self.pairs}
        return {"pairs": len(self.pairs), "routes": [json.loads(route) for route in sorted(routes)]}

    def iteration(self, rng, stats):
        for index in rng.permutation(len(self.pairs)):
            pair = self.pairs[index]
            reference = self.references[pair.label]
            model = Model(pair.program, pair.options)
            try:
                if pair.histogram is not None:
                    yield Step(
                        kind="cold", label=pair.label,
                        call=lambda report, m=model, h=pair.histogram: m.histogram(*h, report=report),
                        check=reference.check_histogram, width=histogram_width,
                    )
                else:
                    target = pair.target
                    yield Step(
                        kind="cold", label=pair.label,
                        call=lambda report, m=model, t=target: m.probability(t, report=report),
                        check=reference.check_probability, width=probability_width,
                    )
                warm_target = reference.draw_target(rng)
                yield Step(
                    kind="warm", label=pair.label,
                    call=lambda report, m=model, t=warm_target: m.probability(t, report=report),
                    check=reference.check_probability, width=probability_width,
                )
                stats.compile_cache_hits += model.cache_info()["hits"]
            finally:
                model.close()


def make_workload(name: str) -> Workload:
    """The named workload.

    ``BENCHMARK.json`` measures ``pedestrian_pool`` and ``paper_suite``; the
    serial ``pedestrian`` and its ``analyzers=("box",)`` ablation
    ``box_grid`` run by hand with ``run.py``: four workloads do not fit
    the benchmark's time budget at a run length long enough to average out
    host speed drift (10–60 s phases on a shared 2-vCPU VM).
    """
    if name == "pedestrian":
        return PedestrianWorkload(
            "pedestrian", warm_count=1, predictions=(Prediction(("cold",), ("polytope",)),),
        )
    if name == "box_grid":
        return PedestrianWorkload(
            "box_grid", warm_count=1, predictions=(Prediction(("cold", "warm"), ("analysis.box",)),),
            analyzers=("box",),
        )
    if name == "pedestrian_pool":
        return PedestrianWorkload(
            "pedestrian_pool", warm_count=3, predictions=(
                Prediction(("warm",), ("analysis.parallel",)),
                Prediction(("cold",), ("polytope",), side="worker"),
            ),
            refine_query=True, workers=2,
        )
    if name == "paper_suite":
        return PaperSuiteWorkload()
    raise KeyError(name)


WORKLOAD_NAMES = ("pedestrian", "box_grid", "pedestrian_pool", "paper_suite")
