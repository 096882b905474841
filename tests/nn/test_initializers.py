"""Tests for repro.nn.initializers."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import uniform_embedding_init, zeros_init


class TestUniformEmbeddingInit:
    def test_range(self):
        matrix = uniform_embedding_init((100, 50), rng=0)
        assert matrix.min() >= -0.5 / 50
        assert matrix.max() < 0.5 / 50

    def test_deterministic(self):
        a = uniform_embedding_init((5, 10), rng=7)
        b = uniform_embedding_init((5, 10), rng=7)
        assert np.array_equal(a, b)

    def test_shape(self):
        assert uniform_embedding_init((3, 4), rng=0).shape == (3, 4)


class TestZerosInit:
    def test_all_zero(self):
        assert not zeros_init((4, 4)).any()

    def test_rng_ignored(self):
        assert np.array_equal(zeros_init((2,), rng=1), zeros_init((2,), rng=2))
