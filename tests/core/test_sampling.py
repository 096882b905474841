"""Tests for Poisson user sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import poisson_sample
from repro.exceptions import ConfigError


class TestPoissonSample:
    def test_probability_zero_empty(self):
        assert poisson_sample(list(range(100)), 0.0, rng=0) == []

    def test_probability_one_everything(self):
        population = list(range(50))
        assert poisson_sample(population, 1.0, rng=0) == population

    def test_preserves_order(self):
        sample = poisson_sample(list(range(1000)), 0.3, rng=1)
        assert sample == sorted(sample)

    def test_mean_sample_size(self):
        rng = np.random.default_rng(2)
        sizes = [len(poisson_sample(list(range(500)), 0.06, rng)) for _ in range(400)]
        assert np.mean(sizes) == pytest.approx(30.0, rel=0.1)

    def test_size_varies(self):
        # Poisson (Bernoulli-per-element) sampling: size is random, not fixed.
        rng = np.random.default_rng(3)
        sizes = {len(poisson_sample(list(range(500)), 0.1, rng)) for _ in range(50)}
        assert len(sizes) > 1

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            poisson_sample([1], -0.1)
        with pytest.raises(ConfigError):
            poisson_sample([1], 1.1)

    @given(prob=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sample_is_subset(self, prob, seed):
        population = list(range(40))
        sample = poisson_sample(population, prob, rng=seed)
        assert set(sample) <= set(population)
        assert len(set(sample)) == len(sample)
