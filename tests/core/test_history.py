"""Tests for TrainingHistory records."""

from __future__ import annotations

from repro.core.history import EvalRecord, StepRecord, TrainingHistory


def _record(step: int, loss: float = 1.0, epsilon: float = 0.1) -> StepRecord:
    return StepRecord(
        step=step,
        mean_loss=loss,
        epsilon_spent=epsilon,
        num_sampled_users=10,
        num_buckets=3,
        mean_unclipped_norm=0.2,
        wall_time_seconds=0.5,
    )


class TestTrainingHistory:
    def test_empty(self):
        history = TrainingHistory()
        assert len(history) == 0
        assert history.final_epsilon == 0.0
        assert history.losses() == []

    def test_accumulates(self):
        history = TrainingHistory()
        history.record_step(_record(1, loss=3.0, epsilon=0.1))
        history.record_step(_record(2, loss=2.0, epsilon=0.2))
        assert len(history) == 2
        assert history.final_epsilon == 0.2
        assert history.losses() == [3.0, 2.0]
        assert history.epsilons() == [0.1, 0.2]

    def test_iteration(self):
        history = TrainingHistory()
        history.record_step(_record(1))
        assert [record.step for record in history] == [1]

    def test_evaluations(self):
        history = TrainingHistory()
        history.record_evaluation(5, {"HR@10": 0.2})
        assert history.evaluations == [EvalRecord(step=5, metrics={"HR@10": 0.2})]

    def test_evaluation_metrics_copied(self):
        history = TrainingHistory()
        metrics = {"HR@10": 0.2}
        history.record_evaluation(1, metrics)
        metrics["HR@10"] = 0.9
        assert history.evaluations[0].metrics["HR@10"] == 0.2
