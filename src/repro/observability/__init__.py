"""Unified observability: tracing and metrics for every layer.

One subsystem instruments the whole system — the training engine's stage
pipeline, the serving stack, and the evaluator all report through the same
two signals:

- **Tracing** (:mod:`~repro.observability.tracing`): nestable
  :class:`Span` regions with wall time, monotonic ids, and parent links,
  collected by a :class:`Tracer` and exportable as JSONL.
- **Metrics** (:mod:`~repro.observability.metrics`): a thread-safe
  :class:`MetricsRegistry` of counters, gauges, and histograms with label
  support, rendered as Prometheus text or JSONL. Per-stage wall time is
  the ``repro_engine_stage_seconds`` histogram; ``repro bench`` reads its
  stage breakdown from it.

:func:`peak_rss_bytes` (:mod:`~repro.observability.profiling`) samples the
process's peak resident set.

:class:`Observability` (:mod:`~repro.observability.hooks`) bundles the
two behind one handle; build it with :func:`with_observability` and pass
it to ``repro.train`` / ``repro.evaluate`` / the serving stack. The
:class:`Observer` protocol (:mod:`~repro.observability.observer`) unifies
the training engine's and serving stack's callback layers.

Instrumentation is passive by contract: no RNG draws, no state mutation —
a run with observability attached is bit-identical to one without.
Exports are telemetry; dplint's DPL004 extends over this package so raw
per-POI visit counts can never leave through a metric or span without the
``include_counts`` opt-in. See ``docs/observability.md``.
"""

from repro.observability.hooks import (
    EngineMetrics,
    EvalMetrics,
    Observability,
    ShardMetrics,
    with_observability,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help_text,
    escape_label_value,
)
from repro.observability.observer import Observer
from repro.observability.profiling import peak_rss_bytes
from repro.observability.tracing import JsonlSpanSink, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EngineMetrics",
    "EvalMetrics",
    "Gauge",
    "Histogram",
    "JsonlSpanSink",
    "MetricsRegistry",
    "Observability",
    "Observer",
    "ShardMetrics",
    "Span",
    "Tracer",
    "escape_help_text",
    "escape_label_value",
    "peak_rss_bytes",
    "with_observability",
]
