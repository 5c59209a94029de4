"""Tests for the Model facade, the compiled-program cache and the analyzer registry."""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.model as model_module
from repro.analysis import (
    AnalysisOptions,
    AnalysisReport,
    CompiledProgram,
    Model,
    UnknownAnalyzerError,
    available_analyzers,
    get_analyzer,
    register_analyzer,
    unregister_analyzer,
)
from repro.estimation import ProbabilityEstimate
from repro.exact import ExactDistribution
from repro.inference import HMCResult, ImportanceResult, MHResult
from repro.intervals import Interval
from repro.lang import builder as b

from helpers import geometric_program, simple_observe_model


@pytest.fixture
def counted_execution(monkeypatch):
    """Count how often the Model facade actually runs symbolic execution."""
    calls = {"count": 0}
    original = model_module.symbolic_paths

    def counting(term, limits=None):
        calls["count"] += 1
        return original(term, limits)

    monkeypatch.setattr(model_module, "symbolic_paths", counting)
    return calls


class TestCompiledProgramCache:
    def test_one_execution_across_bound_histogram_probability(self, counted_execution):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=16))
        model.bound(Interval(0.0, 1.0))
        model.histogram(0.0, 3.0, 4)
        model.probability(Interval(0.0, 1.0))
        assert counted_execution["count"] == 1
        assert model.compile_count == 1
        assert model.cache_hits == 2
        assert model.cache_info() == {
            "entries": 1,
            "compilations": 1,
            "hits": 2,
            "stream_tee_primes": 0,
            "program_cache_hits": 0,
            "program_cache_misses": 0,
        }

    def test_analysis_only_options_share_the_cache(self, counted_execution):
        model = Model(simple_observe_model())
        model.probability(Interval(0.0, 1.0), AnalysisOptions(score_splits=8))
        model.probability(Interval(0.0, 1.0), AnalysisOptions(score_splits=64))
        model.probability(Interval(0.0, 1.0), AnalysisOptions(use_linear_semantics=False))
        assert counted_execution["count"] == 1

    def test_execution_options_invalidate_the_cache(self, counted_execution):
        model = Model(geometric_program())
        model.probability(Interval(-0.5, 0.5), AnalysisOptions(max_fixpoint_depth=3))
        model.probability(Interval(-0.5, 0.5), AnalysisOptions(max_fixpoint_depth=5))
        assert counted_execution["count"] == 2
        # ... but a repeated configuration is served from the cache again.
        model.probability(Interval(-0.5, 0.5), AnalysisOptions(max_fixpoint_depth=3))
        assert counted_execution["count"] == 2

    def test_clear_cache_recompiles(self, counted_execution):
        model = Model(b.sample())
        model.bound(Interval(0.0, 0.5))
        model.clear_cache()
        model.bound(Interval(0.0, 0.5))
        assert counted_execution["count"] == 2

    def test_with_options_shares_the_cache(self, counted_execution):
        model = Model(simple_observe_model(), AnalysisOptions(score_splits=8))
        model.bound(Interval(0.0, 1.0))
        boxy = model.with_options(use_linear_semantics=False)
        boxy.bound(Interval(0.0, 1.0))
        assert counted_execution["count"] == 1

    def test_report_counts_cache_hits(self):
        model = Model(b.sample())
        report = AnalysisReport()
        model.bound(Interval(0.0, 0.5), report=report)
        assert report.compile_cache_hits == 0
        model.bound(Interval(0.5, 1.0), report=report)
        assert report.compile_cache_hits == 1

    def test_compiled_program_is_reusable(self):
        model = Model(b.sample())
        compiled = model.compile()
        assert isinstance(compiled, CompiledProgram)
        assert compiled.path_count == 1
        assert compiled.exact
        bounds = compiled.analyze([Interval(0.0, 0.25)])
        assert bounds[0].lower == pytest.approx(0.25)

    def test_model_requires_a_term(self):
        with pytest.raises(TypeError):
            Model("not a term")

    def test_parse_constructor(self):
        model = Model.parse("(sample)")
        bounds = model.bound(Interval(0.0, 0.5))
        assert bounds.lower == pytest.approx(0.5)


class TestAnalyzerRegistry:
    def test_builtins_registered(self):
        assert {"linear", "box"} <= set(available_analyzers())

    def test_get_analyzer_returns_shared_instance(self):
        assert get_analyzer("box") is get_analyzer("box")
        assert get_analyzer("box").name == "box"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownAnalyzerError, match="no-such-analyzer"):
            get_analyzer("no-such-analyzer")

    def test_unknown_name_in_options_raises_at_query_time(self):
        model = Model(b.sample(), AnalysisOptions(analyzers=("no-such-analyzer",)))
        with pytest.raises(UnknownAnalyzerError):
            model.bound(Interval(0.0, 1.0))

    def test_duplicate_registration_rejected(self):
        from repro.analysis import BoxPathAnalyzer

        with pytest.raises(ValueError, match="already registered"):
            register_analyzer("box", BoxPathAnalyzer)

    def test_invalid_registration_rejected(self):
        class NotAnAnalyzer:
            pass

        with pytest.raises(TypeError):
            register_analyzer("broken", NotAnAnalyzer)
        with pytest.raises(ValueError):
            register_analyzer("", NotAnAnalyzer)

    def test_custom_analyzer_plugs_into_the_engine(self):
        from repro.analysis import analyze_path_boxes

        analyzed = []

        class RecordingAnalyzer:
            name = "recording"

            def applicable(self, path, options):
                return True

            def analyze(self, path, targets, options):
                analyzed.append(path)
                return analyze_path_boxes(path, targets, options)

        register_analyzer("recording", RecordingAnalyzer, replace=True)
        try:
            model = Model(b.sample())
            report = AnalysisReport()
            # The analyzer records calls through a closure, which only works
            # in-process: pin the serial engine even when the environment
            # defaults to a worker pool (REPRO_ANALYSIS_WORKERS).
            bounds = model.bound(
                Interval(0.0, 0.5),
                AnalysisOptions(analyzers=("recording",), workers=1, executor="serial"),
                report=report,
            )
            assert len(analyzed) == 1
            assert report.analyzer_paths == {"recording": 1}
            assert bounds.lower == pytest.approx(0.5)
        finally:
            unregister_analyzer("recording")


class TestAnalysisOptionsValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "max_fixpoint_depth",
            "max_paths",
            "splits_per_dimension",
            "max_boxes_per_path",
            "score_splits",
            "max_score_combinations",
        ],
    )
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_non_positive_knobs_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            AnalysisOptions(**{field: bad})

    def test_empty_analyzer_list_rejected(self):
        with pytest.raises(ValueError):
            AnalysisOptions(analyzers=())

    def test_string_analyzers_rejected(self):
        with pytest.raises(ValueError):
            AnalysisOptions(analyzers="linear")

    def test_analyzer_list_normalised_to_tuple(self):
        options = AnalysisOptions(analyzers=["box"])
        assert options.analyzers == ("box",)
        assert options.analyzer_names == ("box",)

    def test_analyzer_names_derived_from_legacy_flag(self):
        assert AnalysisOptions().analyzer_names == ("linear", "box")
        assert AnalysisOptions(use_linear_semantics=False).analyzer_names == ("box",)

    def test_execution_limits_projection(self):
        options = AnalysisOptions(max_fixpoint_depth=3, max_paths=10)
        limits = options.execution_limits()
        assert limits.max_fixpoint_depth == 3
        assert limits.max_paths == 10
        # Equal projections are the cache key: analysis-only changes share it.
        assert options.with_updates(score_splits=999).execution_limits() == limits


class TestUnifiedBaselines:
    def test_sample_methods_return_existing_dataclasses(self, rng):
        model = Model(simple_observe_model())
        importance = model.sample(200, method="importance", rng=rng)
        assert isinstance(importance, ImportanceResult)
        assert importance.size == 200
        mh = model.sample(50, method="mh", rng=rng)
        assert isinstance(mh, MHResult)
        assert mh.values.shape == (50,)
        hmc_result, values = model.sample(
            20, method="hmc", rng=rng, trace_dimension=1, burn_in=10
        )
        assert isinstance(hmc_result, HMCResult)
        assert values.shape == (20,)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(LookupError, match="unknown sampler"):
            Model(b.sample()).sample(10, method="quantum")

    def test_exact_baseline(self):
        from repro.distributions import Bernoulli
        from repro.lang.ast import Sample

        model = Model(Sample(Bernoulli(0.3)))
        result = model.exact()
        assert isinstance(result, ExactDistribution)
        assert result.probability(1.0) == pytest.approx(0.3)

    def test_estimate_baseline(self):
        model = Model(b.sample())
        estimate = model.estimate(Interval(0.0, 0.25))
        assert isinstance(estimate, ProbabilityEstimate)
        assert estimate.lower <= 0.25 <= estimate.upper
