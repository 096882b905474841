"""The :class:`Observability` bundle: tracer + metrics as one unit.

Call sites (engine, evaluator, serving, CLI, benchmarks) receive a single
``observability`` object instead of separate knobs. The bundle is
pure instrumentation: attaching one to a training run changes no random
draw, no parameter, and no ledger entry — bit-identity with the untraced
run is part of the contract (and asserted in ``tests/observability``).

Build one with :func:`with_observability`::

    obs = with_observability(trace_jsonl="trace.jsonl")
    model = repro.train(config, dataset, with_observability=obs)
    print(obs.metrics.render_prometheus())
    print(obs.metrics.histogram("repro_engine_stage_seconds").stats(stage="account"))
    obs.close()
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import JsonlSpanSink, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine.stages import StepResult


class Observability:
    """One handle over a tracer and a metrics registry.

    Either component may be ``None``; without a tracer :meth:`span` is a
    no-op. Prefer building instances through :func:`with_observability`.

    Args:
        tracer: span collector, or ``None`` for no tracing.
        metrics: shared metrics registry, or ``None`` for no metrics.
        metrics_path / metrics_format: when set, :meth:`close` writes the
            registry there (``"prometheus"`` text or ``"jsonl"``).
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_path: str | Path | None = None,
        metrics_format: str = "prometheus",
        _owned_sink: JsonlSpanSink | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.metrics_format = metrics_format
        self._owned_sink = _owned_sink

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Trace a ``with`` block; yields the open span (or None)."""
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name, **attributes) as span:
                yield span

    def record_span(
        self, name: str, duration_seconds: float, **attributes: Any
    ) -> None:
        """Record an already-measured region as a post-hoc span."""
        if self.tracer is not None:
            self.tracer.add_completed(name, duration_seconds, **attributes)

    def close(self) -> None:
        """Flush owned outputs: trace sink and the configured metrics file."""
        if self.metrics is not None and self.metrics_path is not None:
            self.metrics.write(self.metrics_path, format=self.metrics_format)
        if self._owned_sink is not None:
            self._owned_sink.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def with_observability(
    trace_jsonl: str | Path | None = None,
    metrics_path: str | Path | None = None,
    metrics_format: str = "prometheus",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> Observability:
    """Build an :class:`Observability` bundle with sensible defaults.

    With no arguments: in-memory tracer and a fresh registry.
    ``trace_jsonl`` streams every finished span to a JSON-lines file;
    ``metrics_path``/``metrics_format`` write the registry on
    :meth:`Observability.close`. Pass pre-built components to share them
    (e.g. one registry across training and serving).
    """
    owned_sink = None
    if tracer is None:
        if trace_jsonl is not None:
            owned_sink = JsonlSpanSink(trace_jsonl)
        tracer = Tracer(sink=owned_sink)
    return Observability(
        tracer=tracer,
        metrics=metrics if metrics is not None else MetricsRegistry(),
        metrics_path=metrics_path,
        metrics_format=metrics_format,
        _owned_sink=owned_sink,
    )


class EngineMetrics:
    """Registers and feeds the training engine's metric families.

    Created by the engine once per run when observability carries a
    registry; :meth:`record_step` is called after every completed step.
    Metric families (all prefixed ``repro_engine_``):

    - ``steps_total`` (counter), ``step_seconds`` (histogram)
    - ``stage_seconds{stage=...}`` (histogram): per-stage wall time
    - ``buckets_total`` / ``sampled_users_total`` (counters)
    - ``bucket_seconds`` (histogram): per-bucket local-training wall time
    - ``epsilon_spent`` / ``mean_loss`` (gauges): latest step's values
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._steps = registry.counter(
            "repro_engine_steps_total", "Completed Algorithm 1 steps"
        )
        self._step_seconds = registry.histogram(
            "repro_engine_step_seconds", "Wall time of one full engine step"
        )
        self._stage_seconds = registry.histogram(
            "repro_engine_stage_seconds",
            "Wall time per pipeline stage (label: stage)",
        )
        self._buckets = registry.counter(
            "repro_engine_buckets_total", "Buckets executed across all steps"
        )
        self._sampled_users = registry.counter(
            "repro_engine_sampled_users_total",
            "Users drawn by Poisson sampling across all steps",
        )
        self._bucket_seconds = registry.histogram(
            "repro_engine_bucket_seconds",
            "Per-bucket local-training wall time",
        )
        self._epsilon = registry.gauge(
            "repro_engine_epsilon_spent",
            "Cumulative privacy budget spent after the latest step",
        )
        self._loss = registry.gauge(
            "repro_engine_mean_loss", "Mean local-SGD loss of the latest step"
        )

    def record_step(
        self, result: "StepResult", stage_seconds: dict[str, float]
    ) -> None:
        """Feed one completed step's timings and counters."""
        self._steps.inc()
        self._step_seconds.observe(result.wall_time_seconds)
        for stage, seconds in stage_seconds.items():
            self._stage_seconds.observe(seconds, stage=stage)
        self._buckets.inc(result.group.num_buckets)
        self._sampled_users.inc(len(result.sample.users))
        for update in result.local_train.updates:
            self._bucket_seconds.observe(update.wall_time_seconds)
        epsilon = result.account.epsilon_spent
        if not math.isinf(epsilon):
            self._epsilon.set(epsilon)
        loss = result.local_train.mean_loss
        if loss == loss:  # skip NaN (a step whose buckets were all empty)
            self._loss.set(loss)


class ShardMetrics:
    """Registers and feeds the sharded executor's metric families.

    Created by :class:`~repro.core.engine.executors.ShardedExecutor` when
    observability is bound; fed once per training round. Families
    (prefixed ``repro_engine_shard_``):

    - ``rounds_total`` (counter): rounds executed through the shard pool
    - ``retries_total`` (counter): rounds rerun after a worker death
    - ``seconds{shard=...}`` (histogram): per-shard local-training time
    - ``buckets_total{shard=...}`` (counter): buckets each shard ran
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.rounds = registry.counter(
            "repro_engine_shard_rounds_total",
            "Training rounds executed by the sharded executor",
        )
        self.retries = registry.counter(
            "repro_engine_shard_retries_total",
            "Rounds rerun after a worker process died mid-round",
        )
        self.shard_seconds = registry.histogram(
            "repro_engine_shard_seconds",
            "Per-shard local-training wall time (label: shard)",
        )
        self.shard_buckets = registry.counter(
            "repro_engine_shard_buckets_total",
            "Buckets executed per shard (label: shard)",
        )


class EvalMetrics:
    """Registers and feeds the evaluator's latency metric families.

    Families (prefixed ``repro_eval_``): ``query_seconds`` (histogram,
    per-query latency — amortized over the chunk on the batched path),
    ``batch_seconds`` (histogram, per ``score_batch`` call),
    ``cases_total`` / ``skipped_total`` (counters).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.query_seconds = registry.histogram(
            "repro_eval_query_seconds",
            "Per-query scoring latency during evaluation",
        )
        self.batch_seconds = registry.histogram(
            "repro_eval_batch_seconds",
            "Per-chunk score_batch latency during batched evaluation",
        )
        self.cases = registry.counter(
            "repro_eval_cases_total", "Evaluated leave-one-out cases"
        )
        self.skipped = registry.counter(
            "repro_eval_skipped_total", "Skipped leave-one-out cases"
        )
