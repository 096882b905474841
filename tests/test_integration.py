"""End-to-end integration tests across the full pipeline."""

from __future__ import annotations

import numpy as np

from repro import (
    CheckinDataset,
    LeaveOneOutEvaluator,
    NonPrivateTrainer,
    PLPConfig,
    PrivateLocationPredictor,
    SyntheticConfig,
    UserLevelDPSGD,
    generate_checkins,
    holdout_users_split,
    paper_preprocessing,
    sessionize_dataset,
)
from repro.baselines import PopularityRecommender


class TestFullPipeline:
    def test_generate_to_recommendation(self, split_dataset, holdout_trajectories):
        train, _ = split_dataset
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=0.2,
            noise_multiplier=2.0,
            epsilon=50.0,
            max_steps=10,
        )
        trainer = PrivateLocationPredictor(config, rng=0)
        trainer.fit(train)

        recommender = trainer.recommender()
        for trajectory in holdout_trajectories[:10]:
            recent = list(trajectory.locations[:-1])
            known = trainer.vocabulary.encode_known(recent)
            if not known:
                continue
            results = recommender.recommend(recent, top_k=5)
            assert len(results) == 5
            # Recommendations are known POI ids.
            for location, score in results:
                assert location in trainer.vocabulary
                assert np.isfinite(score)

    def test_pipeline_determinism(self, split_dataset, holdout_trajectories):
        train, _ = split_dataset
        evaluator = LeaveOneOutEvaluator(holdout_trajectories, k_values=(10,))
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=0.2,
            noise_multiplier=2.0,
            epsilon=50.0,
            max_steps=8,
        )
        results = []
        for _ in range(2):
            trainer = PrivateLocationPredictor(config, rng=77)
            trainer.fit(train)
            results.append(evaluator.evaluate(trainer.recommender()).hit_rate[10])
        assert results[0] == results[1]

    def test_noiseless_single_bucket_learns(self, split_dataset):
        # sigma = 0, q = 1, lambda = all users, huge clip: PLP degenerates
        # to plain (non-private) federated learning with one bucket; the
        # training loss must fall substantially.
        train, _ = split_dataset
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=1.0,
            noise_multiplier=0.0,
            grouping_factor=train.num_users,
            clip_bound=1e9,
            epsilon=1.0,
            max_steps=6,
            learning_rate=0.3,
        )
        trainer = PrivateLocationPredictor(config, rng=0)
        history = trainer.fit(train)
        losses = history.losses()
        assert losses[-1] < losses[0]

    def test_private_worse_or_equal_to_nonprivate(
        self, split_dataset, holdout_trajectories
    ):
        train, _ = split_dataset
        evaluator = LeaveOneOutEvaluator(holdout_trajectories, k_values=(20,))

        nonprivate = NonPrivateTrainer(embedding_dim=16, rng=0)
        nonprivate.fit(train, epochs=10)
        ceiling = evaluator.evaluate(nonprivate.recommender()).hit_rate[20]

        config = PLPConfig(
            embedding_dim=16,
            sampling_probability=0.2,
            noise_multiplier=1.5,
            epsilon=1.0,
        )
        private = PrivateLocationPredictor(config, rng=0)
        private.fit(train)
        private_hr = evaluator.evaluate(private.recommender()).hit_rate[20]
        # Privacy costs accuracy: allow slack for seed noise, but the
        # private model must not beat the ceiling outright.
        assert private_hr <= ceiling + 0.05

    def test_shared_evaluator_across_model_types(
        self, split_dataset, holdout_trajectories
    ):
        # The same evaluator instance must accept skip-gram recommenders
        # (vocabulary mode) and baseline recommenders (token mode).
        train, _ = split_dataset
        nonprivate = NonPrivateTrainer(embedding_dim=8, rng=0)
        nonprivate.fit(train, epochs=2)
        vocabulary = nonprivate.vocabulary

        raw_evaluator = LeaveOneOutEvaluator(holdout_trajectories, k_values=(10,))
        raw_result = raw_evaluator.evaluate(nonprivate.recommender())

        from repro.types import Trajectory

        token_trajectories = [
            Trajectory(
                user=t.user, locations=tuple(vocabulary.encode_known(t.locations))
            )
            for t in holdout_trajectories
        ]
        token_trajectories = [t for t in token_trajectories if len(t) >= 2]
        token_evaluator = LeaveOneOutEvaluator(token_trajectories, k_values=(10,))
        sequences = [vocabulary.encode_known(h.locations()) for h in train]
        popularity = PopularityRecommender(sequences, vocabulary.size)
        pop_result = token_evaluator.evaluate(popularity)

        assert raw_result.num_cases > 0
        assert pop_result.num_cases > 0

    def test_dpsgd_and_plp_share_budget_schedule(self, split_dataset):
        # Identical (q, sigma, epsilon) => identical step counts at the
        # budget stop, regardless of grouping.
        train, _ = split_dataset
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=0.1,
            noise_multiplier=2.0,
            epsilon=0.5,
        )
        plp_history = PrivateLocationPredictor(config, rng=0).fit(train)
        dpsgd_history = UserLevelDPSGD(config, rng=0).fit(train)
        assert len(plp_history) == len(dpsgd_history)
        assert plp_history.stop_reason == dpsgd_history.stop_reason == "budget_exhausted"


class TestDatasetRegeneration:
    def test_same_seed_same_dataset(self):
        config = SyntheticConfig(num_users=30, num_locations=25, num_clusters=4)
        a = CheckinDataset(paper_preprocessing(generate_checkins(config, rng=5)))
        b = CheckinDataset(paper_preprocessing(generate_checkins(config, rng=5)))
        assert a.num_checkins == b.num_checkins
        assert a.user_sequences() == b.user_sequences()

    def test_split_then_sessionize_consistency(self, small_dataset):
        train, holdout = holdout_users_split(small_dataset, 10, rng=3)
        trajectories = sessionize_dataset(holdout)
        holdout_users = set(holdout.users)
        assert all(t.user in holdout_users for t in trajectories)
        train_users = set(train.users)
        assert not holdout_users & train_users
