"""Observability wired through the engine, evaluator, and serving layers.

The load-bearing contract here is *passivity*: a training run with a full
observability bundle attached must be bit-identical — same parameters,
same ledger — to the same run without one.
"""

import numpy as np
import pytest

import repro
from repro.core.config import PLPConfig
from repro.core.engine.engine import STAGE_NAMES
from repro.core.trainer import PrivateLocationPredictor
from repro.observability import with_observability


def _fast_config(**overrides) -> PLPConfig:
    base = dict(
        embedding_dim=8,
        num_negatives=4,
        sampling_probability=0.2,
        noise_multiplier=2.0,
        epsilon=50.0,  # max_steps is the binding stop
        grouping_factor=3,
        max_steps=3,
    )
    base.update(overrides)
    return PLPConfig(**base)


class TestEngineSpans:
    @pytest.fixture(scope="class")
    def traced_run(self, split_dataset):
        train, _ = split_dataset
        obs = with_observability()
        trainer = PrivateLocationPredictor(
            _fast_config(), rng=11, observability=obs
        )
        history = trainer.fit(train)
        return obs, trainer, history

    def test_one_step_span_per_step(self, traced_run):
        obs, _, history = traced_run
        steps = obs.tracer.spans_named("engine.step")
        assert len(steps) == len(history)
        assert all(span.parent_id is None for span in steps)
        assert [span.attributes["step"] for span in steps] == list(
            range(1, len(history) + 1)
        )

    def test_every_stage_nests_under_its_step(self, traced_run):
        obs, _, history = traced_run
        step_ids = {s.span_id for s in obs.tracer.spans_named("engine.step")}
        for stage in STAGE_NAMES:
            spans = obs.tracer.spans_named(f"engine.stage.{stage}")
            assert len(spans) == len(history)
            assert all(span.parent_id in step_ids for span in spans)

    def test_local_train_span_carries_bucket_count(self, traced_run):
        obs, _, _ = traced_run
        for span in obs.tracer.spans_named("engine.stage.local_train"):
            assert span.attributes["num_buckets"] >= 1

    def test_engine_metrics_populated(self, traced_run):
        obs, _, history = traced_run
        metrics = obs.metrics
        assert metrics.counter("repro_engine_steps_total").total() == len(history)
        assert metrics.counter("repro_engine_buckets_total").total() > 0
        assert metrics.histogram("repro_engine_step_seconds").count() == len(history)
        for stage in STAGE_NAMES:
            assert (
                metrics.histogram("repro_engine_stage_seconds").count(stage=stage)
                == len(history)
            )
        assert metrics.histogram("repro_engine_bucket_seconds").count() > 0
        assert metrics.gauge("repro_engine_epsilon_spent").value() > 0

    def test_profiler_covers_every_stage(self, traced_run):
        obs, _, history = traced_run
        summary = obs.profiler.summary()
        for stage in STAGE_NAMES:
            assert summary[f"engine.stage.{stage}"]["count"] == len(history)


class TestBudgetPreviewBilling:
    def test_slow_budget_preview_is_billed_to_account(self, split_dataset, monkeypatch):
        """The ledger preview runs before apply and counts as accounting."""
        import time

        from repro.core.engine.stages import StepPipeline

        delay = 0.05
        preview = StepPipeline.budget_would_cross

        def slow_preview(self, sigma):
            time.sleep(delay)
            return preview(self, sigma)

        monkeypatch.setattr(StepPipeline, "budget_would_cross", slow_preview)
        train, _ = split_dataset
        obs = with_observability()
        history = PrivateLocationPredictor(
            _fast_config(), rng=11, observability=obs
        ).fit(train)
        stage_seconds = obs.metrics.histogram("repro_engine_stage_seconds")
        assert stage_seconds.count(stage="account") == len(history)
        assert stage_seconds.sum(stage="account") >= delay * len(history)
        assert stage_seconds.sum(stage="apply") < delay
        previews = obs.tracer.spans_named("engine.stage.account.preview")
        assert len(previews) == len(history)
        assert all(span.duration_seconds >= delay for span in previews)


class TestParallelExecutorSpans:
    def test_spans_and_bucket_timings_under_process_pool(self, split_dataset):
        train, _ = split_dataset
        obs = with_observability()
        trainer = PrivateLocationPredictor(
            _fast_config(max_steps=2),
            rng=11,
            executor="sharded",
            workers=2,
            observability=obs,
        )
        history = trainer.fit(train)
        step_ids = {s.span_id for s in obs.tracer.spans_named("engine.step")}
        assert len(step_ids) == len(history)
        # Stage spans are recorded in the driver process, so parenting
        # holds even though buckets run in workers...
        for stage in STAGE_NAMES:
            spans = obs.tracer.spans_named(f"engine.stage.{stage}")
            assert all(span.parent_id in step_ids for span in spans)
        # ...and per-bucket wall times still travel back on the updates.
        bucket_seconds = obs.metrics.histogram("repro_engine_bucket_seconds")
        assert bucket_seconds.count() > 0
        assert bucket_seconds.stats()["min"] > 0.0


class TestShardMetricsRebinding:
    def test_reused_executor_reports_to_each_runs_registry(self, split_dataset):
        """A shared pool feeds the registry of the run it is executing."""
        from repro.core.engine import ShardedExecutor

        train, _ = split_dataset
        first, second = with_observability(), with_observability()
        with ShardedExecutor(max_workers=2) as executor:
            for obs in (first, second, None):
                PrivateLocationPredictor(
                    _fast_config(max_steps=2),
                    rng=11,
                    executor=executor,
                    observability=obs,
                ).fit(train)
        for obs in (first, second):
            rounds = obs.metrics.counter("repro_engine_shard_rounds_total")
            assert rounds.total() == 2
            assert len(obs.tracer.spans_named("engine.shard")) >= 2


class TestBitIdentity:
    def test_training_identical_with_and_without_observability(
        self, split_dataset
    ):
        train, _ = split_dataset
        plain = PrivateLocationPredictor(_fast_config(), rng=11)
        plain.fit(train)
        obs = with_observability()
        traced = PrivateLocationPredictor(
            _fast_config(), rng=11, observability=obs
        )
        traced.fit(train)

        # Same parameters, bit for bit.
        for key in plain.model.params:
            assert np.array_equal(
                plain.model.params[key], traced.model.params[key]
            ), key
        # Same ledger, entry by entry.
        assert len(plain.ledger) == len(traced.ledger)
        for a, b in zip(plain.ledger.entries, traced.ledger.entries):
            assert a == b
        assert (
            plain.ledger.cumulative_budget_spent()
            == traced.ledger.cumulative_budget_spent()
        )
        # The traced run did record telemetry.
        assert obs.tracer.spans_named("engine.step")


class TestFacadeWiring:
    def test_train_and_evaluate_feed_one_bundle(self, split_dataset):
        train, holdout = split_dataset
        obs = with_observability()
        model = repro.train(
            _fast_config(), train, rng=11, with_observability=obs
        )
        result = repro.evaluate(model, holdout, with_observability=obs)

        assert obs.metrics.counter("repro_engine_steps_total").total() > 0
        query_seconds = obs.metrics.histogram("repro_eval_query_seconds")
        assert query_seconds.count() == result.num_cases
        assert (
            obs.metrics.counter("repro_eval_cases_total").total()
            == result.num_cases
        )
        assert obs.tracer.spans_named("eval.evaluate")
        # One scrape shows both layers.
        text = obs.metrics.render_prometheus()
        assert "repro_engine_step_seconds" in text
        assert "repro_eval_query_seconds" in text
