"""Statistical verification of the trainer's Gaussian noise injection.

These tests pin the *magnitude* of the DP noise that actually lands in the
model parameters — the property every privacy claim rests on. With local
learning disabled (learning_rate -> 0 makes bucket deltas vanish), one
Algorithm 1 step leaves ``theta_1 - theta_0 = noise / |H|`` with noise
drawn from N(0, sigma^2 omega^2 C^2 I), so the empirical standard
deviation across the model's ~50k coordinates estimates
``sigma * omega * C / |H|`` tightly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PLPConfig
from repro.core.trainer import PrivateLocationPredictor


def _noise_std_after_one_step(split_dataset, sigma, omega, grouping_factor):
    train, _ = split_dataset
    config = PLPConfig(
        embedding_dim=16,
        num_negatives=4,
        sampling_probability=1.0,  # deterministic |H|
        noise_multiplier=sigma,
        split_factor=omega,
        grouping_factor=grouping_factor,
        clip_bound=0.5,
        learning_rate=1e-12,  # freeze learning: the update is pure noise
        epsilon=1e9,
        max_steps=1,
    )
    trainer = PrivateLocationPredictor(config, rng=123)
    # Capture the initialization by re-seeding an identical model.
    from repro.core._pairs import build_pair_source
    from repro.data.store import open_corpus
    from repro.models.skipgram import SkipGramModel

    vocabulary, _ = build_pair_source(open_corpus(train), config.window)
    reference = SkipGramModel(
        num_locations=vocabulary.size,
        embedding_dim=config.embedding_dim,
        num_negatives=config.num_negatives,
        rng=np.random.default_rng(123),
    )
    history = trainer.fit(train)
    buckets = history.steps[0].num_buckets
    diffs = np.concatenate(
        [
            (trainer.model.params[name] - reference.params[name]).ravel()
            for name in trainer.model.params.names()
        ]
    )
    return float(diffs.std()), buckets


class TestNoiseMagnitude:
    def test_matches_sigma_c_over_buckets(self, split_dataset):
        sigma = 2.0
        measured, buckets = _noise_std_after_one_step(
            split_dataset, sigma=sigma, omega=1, grouping_factor=4
        )
        expected = sigma * 0.5 / buckets
        assert measured == pytest.approx(expected, rel=0.05)

    def test_omega_scales_sensitivity(self, split_dataset):
        # omega = 2 splits each user into two virtual users, so the bucket
        # count roughly doubles while the noise std per *sum* doubles
        # (sensitivity omega * C); per averaged update the measured noise
        # must equal sigma * omega * C / |H| exactly.
        base, buckets_a = _noise_std_after_one_step(
            split_dataset, sigma=2.0, omega=1, grouping_factor=4
        )
        split, buckets_b = _noise_std_after_one_step(
            split_dataset, sigma=2.0, omega=2, grouping_factor=4
        )
        assert buckets_b > buckets_a  # virtual users inflate the bucket count
        assert base == pytest.approx(2.0 * 1 * 0.5 / buckets_a, rel=0.05)
        assert split == pytest.approx(2.0 * 2 * 0.5 / buckets_b, rel=0.05)

    def test_fewer_buckets_more_noise(self, split_dataset):
        fine, buckets_fine = _noise_std_after_one_step(
            split_dataset, sigma=2.0, omega=1, grouping_factor=2
        )
        coarse, buckets_coarse = _noise_std_after_one_step(
            split_dataset, sigma=2.0, omega=1, grouping_factor=16
        )
        assert buckets_fine > buckets_coarse
        # Noise per averaged update scales like 1 / |H|.
        assert coarse / fine == pytest.approx(
            buckets_fine / buckets_coarse, rel=0.1
        )

    def test_zero_sigma_zero_noise(self, split_dataset):
        measured, _ = _noise_std_after_one_step(
            split_dataset, sigma=0.0, omega=1, grouping_factor=4
        )
        assert measured < 1e-9
