"""The Observability bundle, the peak-RSS sampler, and the unified Observer."""

import json
import warnings

from repro.observability import (
    MetricsRegistry,
    Observability,
    Observer,
    Tracer,
    peak_rss_bytes,
    with_observability,
)


class TestPeakRss:
    def test_peak_rss_is_positive_when_reported(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024  # at least a megabyte


class TestWithObservability:
    def test_defaults_build_all_components(self):
        obs = with_observability()
        assert isinstance(obs.tracer, Tracer)
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_span_feeds_tracer_and_profiler(self):
        obs = with_observability()
        with obs.span("region", step=1) as span:
            pass
        assert span.attributes == {"step": 1}
        assert obs.tracer.spans_named("region")

    def test_span_degrades_without_tracer(self):
        obs = Observability(metrics=MetricsRegistry())
        with obs.span("region") as span:
            assert span is None
        obs.record_span("batch", 0.5)  # no tracer: nothing to record into
        with Observability().span("region") as span:
            assert span is None  # full no-op

    def test_record_span_posthoc(self):
        obs = with_observability()
        obs.record_span("batch", 0.5, batch_size=4)
        (span,) = obs.tracer.spans_named("batch")
        assert span.duration_seconds == 0.5

    def test_trace_jsonl_streams_and_close_flushes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = with_observability(trace_jsonl=path)
        with obs.span("a"):
            pass
        obs.close()
        assert json.loads(path.read_text().splitlines()[0])["name"] == "a"

    def test_close_writes_metrics_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        with with_observability(metrics_path=path) as obs:
            obs.metrics.counter("c").inc()
        assert "# TYPE c counter" in path.read_text()

    def test_close_writes_metrics_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        obs = with_observability(metrics_path=path, metrics_format="jsonl")
        obs.metrics.counter("c").inc()
        obs.close()
        assert json.loads(path.read_text())["metric"] == "c"

    def test_shared_registry_is_reused(self):
        registry = MetricsRegistry()
        obs = with_observability(metrics=registry)
        assert obs.metrics is registry


class TestObserverSubclassing:
    def test_unified_observer_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")

            class _Fresh(Observer):
                pass

            _Fresh()
