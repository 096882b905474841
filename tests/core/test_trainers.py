"""Integration tests for the PLP trainer, DP-SGD baseline, and non-private trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PLPConfig
from repro.core.dpsgd import UserLevelDPSGD
from repro.core.nonprivate import NonPrivateTrainer
from repro.core.trainer import PrivateLocationPredictor
from repro.eval.evaluator import LeaveOneOutEvaluator
from repro.exceptions import ConfigError, NotFittedError
from repro.privacy.accountant import max_steps_for_budget


def _fast_config(**overrides) -> PLPConfig:
    base = dict(
        embedding_dim=8,
        num_negatives=4,
        sampling_probability=0.2,
        noise_multiplier=2.0,
        epsilon=50.0,  # large enough that max_steps is the binding stop
        grouping_factor=3,
        max_steps=12,
    )
    base.update(overrides)
    return PLPConfig(**base)


class TestPrivateTrainer:
    def test_budget_stop_respects_epsilon(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(
            epsilon=0.5, max_steps=None, noise_multiplier=2.0, sampling_probability=0.1
        )
        trainer = PrivateLocationPredictor(config, rng=0)
        history = trainer.fit(train)
        assert history.stop_reason == "budget_exhausted"
        expected_steps = max_steps_for_budget(
            0.5, config.delta, config.sampling_probability, 2.0
        )
        # The crossing step executes then rolls back, so len = expected + 1.
        assert len(history) == expected_steps + 1
        assert history.final_epsilon >= 0.5

    def test_max_steps_stop(self, split_dataset):
        train, _ = split_dataset
        trainer = PrivateLocationPredictor(_fast_config(max_steps=5), rng=0)
        history = trainer.fit(train)
        assert len(history) == 5
        assert history.stop_reason == "max_steps"

    def test_ledger_entries_match_steps(self, split_dataset):
        train, _ = split_dataset
        trainer = PrivateLocationPredictor(_fast_config(max_steps=7), rng=0)
        history = trainer.fit(train)
        assert len(trainer.ledger) == len(history) == 7
        entry = trainer.ledger.entries[0]
        assert entry.clip_bound == trainer.config.clip_bound
        assert entry.noise_multiplier == trainer.config.noise_multiplier

    def test_epsilon_monotone_over_steps(self, split_dataset):
        train, _ = split_dataset
        trainer = PrivateLocationPredictor(_fast_config(max_steps=8), rng=0)
        history = trainer.fit(train)
        epsilons = history.epsilons()
        assert all(a < b for a, b in zip(epsilons, epsilons[1:]))

    def test_deterministic_under_seed(self, split_dataset):
        train, _ = split_dataset
        a = PrivateLocationPredictor(_fast_config(max_steps=4), rng=11)
        b = PrivateLocationPredictor(_fast_config(max_steps=4), rng=11)
        a.fit(train)
        b.fit(train)
        assert a.model.params.allclose(b.model.params)

    def test_different_seeds_differ(self, split_dataset):
        train, _ = split_dataset
        a = PrivateLocationPredictor(_fast_config(max_steps=4), rng=11)
        b = PrivateLocationPredictor(_fast_config(max_steps=4), rng=12)
        a.fit(train)
        b.fit(train)
        assert not a.model.params.allclose(b.model.params)

    def test_rollback_on_budget_crossing(self, split_dataset):
        # Params returned are theta_{t-1}: refitting with max_steps at the
        # pre-crossing count must give the same final parameters.
        train, _ = split_dataset
        config = _fast_config(
            epsilon=0.5, max_steps=None, noise_multiplier=2.0, sampling_probability=0.1
        )
        full = PrivateLocationPredictor(config, rng=3)
        history = full.fit(train)
        steps_before_crossing = len(history) - 1
        truncated = PrivateLocationPredictor(
            config.with_overrides(max_steps=steps_before_crossing), rng=3
        )
        truncated.fit(train)
        assert full.model.params.allclose(truncated.model.params)

    def test_sigma_zero_requires_max_steps(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(noise_multiplier=0.0, max_steps=None)
        with pytest.raises(ConfigError):
            PrivateLocationPredictor(config, rng=0).fit(train)

    def test_sigma_zero_runs_with_max_steps(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(noise_multiplier=0.0, max_steps=3)
        history = PrivateLocationPredictor(config, rng=0).fit(train)
        assert len(history) == 3
        assert history.stop_reason == "max_steps"

    def test_eval_callback_invoked(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=6, eval_every=2)
        trainer = PrivateLocationPredictor(config, rng=0)
        calls: list[int] = []

        def eval_fn(embeddings):
            calls.append(embeddings.num_locations)
            return {"marker": float(len(calls))}

        history = trainer.fit(train, eval_fn=eval_fn)
        # Every 2 steps; the final step (6) already carries a snapshot, so
        # no duplicate is appended.
        assert [record.step for record in history.evaluations] == [2, 4, 6]
        assert history.evaluations[0].metrics["marker"] == 1.0

    def test_not_fitted_errors(self):
        trainer = PrivateLocationPredictor(_fast_config())
        with pytest.raises(NotFittedError):
            trainer.embeddings()
        assert trainer.epsilon_spent() == 0.0

    def test_recommender_round_trip(self, split_dataset, holdout_trajectories):
        train, _ = split_dataset
        trainer = PrivateLocationPredictor(_fast_config(max_steps=5), rng=0)
        trainer.fit(train)
        evaluator = LeaveOneOutEvaluator(holdout_trajectories, k_values=(10,))
        result = evaluator.evaluate(trainer.recommender())
        assert 0.0 <= result.hit_rate[10] <= 1.0
        assert result.num_cases > 0

    def test_server_adam_variant_runs(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=4, server_optimizer="adam")
        history = PrivateLocationPredictor(config, rng=0).fit(train)
        assert len(history) == 4

    def test_omega_two_runs_with_scaled_noise(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=3, split_factor=2)
        trainer = PrivateLocationPredictor(config, rng=0)
        history = trainer.fit(train)
        assert len(history) == 3

    def test_equal_frequency_grouping_runs(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=3, grouping_strategy="equal_frequency")
        history = PrivateLocationPredictor(config, rng=0).fit(train)
        assert len(history) == 3


class TestUserLevelDPSGD:
    def test_forces_single_user_buckets(self, split_dataset):
        train, _ = split_dataset
        baseline = UserLevelDPSGD(_fast_config(max_steps=3, grouping_factor=4), rng=0)
        assert baseline.config.grouping_factor == 1
        assert baseline.config.local_update == "gradient"
        history = baseline.fit(train)
        for record in history:
            assert record.num_buckets == record.num_sampled_users

    def test_same_privacy_accounting_as_plp(self, split_dataset):
        train, _ = split_dataset
        config = _fast_config(max_steps=5)
        plp = PrivateLocationPredictor(config, rng=0)
        dpsgd = UserLevelDPSGD(config, rng=0)
        plp.fit(train)
        dpsgd.fit(train)
        assert plp.epsilon_spent() == pytest.approx(dpsgd.epsilon_spent())


class TestNonPrivateTrainer:
    def test_loss_decreases(self, split_dataset):
        train, _ = split_dataset
        trainer = NonPrivateTrainer(embedding_dim=8, num_negatives=4, rng=0)
        history = trainer.fit(train, epochs=6)
        losses = history.losses()
        assert losses[-1] < losses[0]
        assert history.stop_reason == "epochs_completed"

    def test_one_record_per_epoch(self, split_dataset):
        train, _ = split_dataset
        trainer = NonPrivateTrainer(embedding_dim=8, num_negatives=4, rng=0)
        assert len(trainer.fit(train, epochs=3)) == 3

    def test_beats_random_ranking(self, split_dataset, holdout_trajectories):
        train, _ = split_dataset
        trainer = NonPrivateTrainer(embedding_dim=16, rng=0)
        trainer.fit(train, epochs=10)
        evaluator = LeaveOneOutEvaluator(holdout_trajectories, k_values=(10,))
        result = evaluator.evaluate(trainer.recommender())
        random_floor = 10.0 / trainer.vocabulary.size
        assert result.hit_rate[10] > 1.5 * random_floor

    def test_eval_callback_cadence(self, split_dataset):
        train, _ = split_dataset
        trainer = NonPrivateTrainer(embedding_dim=8, rng=0)
        history = trainer.fit(
            train, epochs=5, eval_fn=lambda e: {"x": 1.0}, eval_every_epochs=2
        )
        # Epochs 2, 4, and the final extra snapshot at 5.
        assert [record.step for record in history.evaluations] == [2, 4, 5]

    def test_sharded_store_trains_like_memory(self, split_dataset, tmp_path):
        from repro.data.store import write_sharded_store

        train, _ = split_dataset
        store = write_sharded_store(tmp_path / "s", train, users_per_shard=16)
        trainers = []
        for corpus in (train, store):
            trainer = NonPrivateTrainer(embedding_dim=8, num_negatives=4, rng=0)
            trainer.fit(corpus, epochs=2)
            trainers.append(trainer)
        memory, sharded = trainers
        assert sharded.vocabulary.locations() == memory.vocabulary.locations()
        np.testing.assert_array_equal(
            sharded.model.params["W"], memory.model.params["W"]
        )

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            NonPrivateTrainer().embeddings()

    def test_invalid_epochs(self, split_dataset):
        train, _ = split_dataset
        with pytest.raises(ConfigError):
            NonPrivateTrainer().fit(train, epochs=0)
