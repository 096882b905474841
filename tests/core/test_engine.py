"""Tests for the layered training engine: executors, observers, pipeline."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import PLPConfig
from repro.core.bucket import model_update_from_bucket
from repro.core.engine import (
    BucketJob,
    CheckpointObserver,
    JsonlMetricsObserver,
    LocalTrainSpec,
    SerialExecutor,
    ShardedExecutor,
    Observer,
    make_executor,
)
from repro.core.trainer import PrivateLocationPredictor
from repro.exceptions import ConfigError, ExecutorError
from repro.models.serialization import load_training_checkpoint
from repro.models.skipgram import SkipGramModel
from repro.privacy.accountant import PrivacyLedger
from repro.rng import derive_seed_sequence


def _fast_config(**overrides) -> PLPConfig:
    base = dict(
        embedding_dim=8,
        num_negatives=4,
        sampling_probability=0.2,
        noise_multiplier=2.0,
        epsilon=50.0,
        grouping_factor=3,
        max_steps=12,
    )
    base.update(overrides)
    return PLPConfig(**base)


def _deterministic_fields(history):
    return [
        (
            record.step,
            record.mean_loss,
            record.epsilon_spent,
            record.num_sampled_users,
            record.num_buckets,
            record.mean_unclipped_norm,
        )
        for record in history
    ]


class _CaptureObserver(Observer):
    """Collects step results and bucket callbacks for assertions."""

    def __init__(self) -> None:
        self.results = []
        self.bucket_calls = 0
        self.stop_reason = None

    def on_bucket_done(self, context, step, update):
        self.bucket_calls += 1

    def on_step_end(self, context, result):
        self.results.append(result)

    def on_stop(self, context, reason):
        self.stop_reason = reason


class TestSerialParallelEquivalence:
    def test_bit_identical_history_and_parameters(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=3)
        serial = PrivateLocationPredictor(config, rng=11, executor="serial")
        history_serial = serial.fit(train)
        parallel = PrivateLocationPredictor(
            config, rng=11, executor="sharded", workers=2
        )
        history_parallel = parallel.fit(train)

        # Final parameters (hence embeddings) must match to the last bit.
        for name in serial.model.params.names():
            assert np.array_equal(
                serial.model.params[name], parallel.model.params[name]
            ), name
        # Every deterministic history field matches exactly (wall time is
        # the one field that legitimately differs between backends).
        assert _deterministic_fields(history_serial) == _deterministic_fields(
            history_parallel
        )
        assert history_serial.stop_reason == history_parallel.stop_reason

    def test_parallel_budget_stop_matches_serial(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(
            epsilon=0.5, max_steps=None, noise_multiplier=2.0, sampling_probability=0.1
        )
        serial = PrivateLocationPredictor(config, rng=3, executor="serial")
        history_serial = serial.fit(train)
        parallel = PrivateLocationPredictor(
            config, rng=3, executor="sharded", workers=2
        )
        history_parallel = parallel.fit(train)
        assert history_serial.stop_reason == "budget_exhausted"
        assert _deterministic_fields(history_serial) == _deterministic_fields(
            history_parallel
        )
        for name in serial.model.params.names():
            assert np.array_equal(
                serial.model.params[name], parallel.model.params[name]
            ), name


def _failing_step_inputs():
    model = SkipGramModel(num_locations=20, embedding_dim=4, num_negatives=2, rng=0)
    # An invalid clipping mode raises ConfigError inside the bucket job —
    # a picklable failure that also reproduces in worker processes.
    spec = LocalTrainSpec(
        model=model,
        batch_size=4,
        learning_rate=0.1,
        clip_bound=0.5,
        clipping="bogus",
        local_update="sgd",
    )
    jobs = [
        BucketJob(
            index=index,
            pairs=np.array([[1, 2], [3, 4], [5, 6]]),
            seed=derive_seed_sequence(0, 1, index),
        )
        for index in range(3)
    ]
    return spec, jobs


class TestExecutorFailure:
    def test_serial_wraps_job_failure(self):
        spec, jobs = _failing_step_inputs()
        with pytest.raises(ExecutorError) as excinfo:
            SerialExecutor().run_step(spec, jobs)
        assert isinstance(excinfo.value.__cause__, ConfigError)

    def test_parallel_raises_executor_error_without_hanging(self):
        spec, jobs = _failing_step_inputs()
        with ShardedExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorError) as excinfo:
                executor.run_step(spec, jobs)
        assert isinstance(excinfo.value.__cause__, ConfigError)

    def test_parallel_pool_survives_job_failure(self):
        spec, jobs = _failing_step_inputs()
        good_spec = LocalTrainSpec(
            model=spec.model,
            batch_size=4,
            learning_rate=0.1,
            clip_bound=0.5,
            clipping="per_layer",
            local_update="sgd",
        )
        with ShardedExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorError):
                executor.run_step(spec, jobs)
            updates = executor.run_step(good_spec, jobs)
        assert len(updates) == len(jobs)

    def test_empty_step_returns_no_updates(self):
        spec, _ = _failing_step_inputs()
        with ShardedExecutor(max_workers=2) as executor:
            assert executor.run_step(spec, []) == []


class TestMakeExecutor:
    def test_serial_default(self):
        executor, owned = make_executor(None)
        assert isinstance(executor, SerialExecutor)
        assert owned

    def test_instance_passthrough_not_owned(self):
        instance = SerialExecutor()
        executor, owned = make_executor(instance)
        assert executor is instance
        assert not owned

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_executor("threads")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            ShardedExecutor(max_workers=0)


class TestSnapshotPolicy:
    def test_snapshot_taken_only_on_crossing_step(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(
            epsilon=0.5, max_steps=None, noise_multiplier=2.0, sampling_probability=0.1
        )
        capture = _CaptureObserver()
        trainer = PrivateLocationPredictor(config, rng=0, observers=[capture])
        history = trainer.fit(train)
        assert history.stop_reason == "budget_exhausted"
        flags = [result.apply.snapshot_taken for result in capture.results]
        # Only the (single, final) budget-crossing step pays the full
        # parameter copy; every earlier step skips it.
        assert flags[-1] is True
        assert not any(flags[:-1])

    def test_no_snapshot_under_max_steps_stop(self, split_dataset):
        train, _ = split_dataset
        capture = _CaptureObserver()
        trainer = PrivateLocationPredictor(
            _fast_config(max_steps=4), rng=0, observers=[capture]
        )
        trainer.fit(train)
        assert not any(result.apply.snapshot_taken for result in capture.results)
        assert capture.stop_reason == "max_steps"

    def test_bucket_callbacks_cover_every_bucket(self, split_dataset):
        train, _ = split_dataset
        capture = _CaptureObserver()
        trainer = PrivateLocationPredictor(
            _fast_config(max_steps=3), rng=0, observers=[capture]
        )
        history = trainer.fit(train)
        assert capture.bucket_calls == sum(record.num_buckets for record in history)


class TestLedgerPreview:
    def test_preview_matches_recorded_spend_bitwise(self):
        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
        for _ in range(5):
            preview = ledger.preview_budget_spent(2.5)
            ledger.track_budget(0.5, 2.5)
            assert ledger.cumulative_budget_spent() == preview

    def test_preview_does_not_record(self):
        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
        ledger.preview_budget_spent(2.5)
        assert len(ledger) == 0
        assert ledger.cumulative_budget_spent() == 0.0


class TestWorkerSafeBucket:
    def test_theta_is_read_only(self):
        model = SkipGramModel(
            num_locations=30, embedding_dim=6, num_negatives=3, rng=1
        )
        before = {
            name: model.params[name].copy() for name in model.params.names()
        }
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 30, size=(24, 2))
        update = model_update_from_bucket(
            model,
            model.params,
            pairs,
            batch_size=8,
            learning_rate=0.1,
            clip_bound=0.5,
            rng=rng,
        )
        for name, tensor in before.items():
            assert np.array_equal(model.params[name], tensor), name
        assert update.num_batches == 3
        assert update.unclipped_norm > 0.0


class TestJsonlMetrics:
    def test_stream_and_stop_events(self, split_dataset, tmp_path):
        train, _ = split_dataset
        path = tmp_path / "metrics.jsonl"
        trainer = PrivateLocationPredictor(
            _fast_config(max_steps=3), rng=0, observers=[JsonlMetricsObserver(path)]
        )
        history = trainer.fit(train)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        steps = [line for line in lines if line["event"] == "step"]
        stops = [line for line in lines if line["event"] == "stop"]
        assert [line["step"] for line in steps] == [1, 2, 3]
        assert steps[0]["epsilon_spent"] == history.steps[0].epsilon_spent
        assert stops == [{"event": "stop", "reason": "max_steps", "steps": 3}]


class TestCheckpointObserver:
    def test_round_trip_restores_theta_and_ledger(self, split_dataset, tmp_path):
        train, _ = split_dataset
        path = tmp_path / "checkpoint.npz"
        trainer = PrivateLocationPredictor(
            _fast_config(max_steps=4), rng=0, observers=[CheckpointObserver(path)]
        )
        history = trainer.fit(train)

        checkpoint = load_training_checkpoint(path)
        assert checkpoint.step == len(history) == 4
        for name in trainer.model.params.names():
            assert np.array_equal(
                checkpoint.parameters[name], trainer.model.params[name]
            ), name
        restored = checkpoint.restore_ledger()
        assert len(restored) == len(trainer.ledger)
        assert restored.cumulative_budget_spent() == pytest.approx(
            trainer.ledger.cumulative_budget_spent()
        )
        fresh = trainer.model.params.zeros_like()
        checkpoint.restore_parameters(fresh)
        assert fresh.allclose(trainer.model.params)

    def test_final_checkpoint_holds_rolled_back_parameters(
        self, split_dataset, tmp_path
    ):
        train, _ = split_dataset
        path = tmp_path / "checkpoint.npz"
        config = _fast_config(
            epsilon=0.5, max_steps=None, noise_multiplier=2.0, sampling_probability=0.1
        )
        trainer = PrivateLocationPredictor(
            config, rng=3, observers=[CheckpointObserver(path, every=1000)]
        )
        history = trainer.fit(train)
        assert history.stop_reason == "budget_exhausted"
        checkpoint = load_training_checkpoint(path)
        # Saved after rollback: the stored theta is what the caller gets.
        for name in trainer.model.params.names():
            assert np.array_equal(
                checkpoint.parameters[name], trainer.model.params[name]
            ), name
        # The ledger still records the crossing step's spend.
        assert len(checkpoint.ledger_entries) == len(history)
