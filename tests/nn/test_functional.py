"""Tests for repro.nn.functional, with hypothesis stability properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.functional import (
    log_softmax,
    logsumexp,
    normalize_rows,
    one_hot,
    sigmoid,
    softmax,
)

_logit_rows = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(2, 9)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probs.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_extreme_values_stable(self):
        probs = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    @given(x=_logit_rows)
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        probs = softmax(x, axis=1)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)


class TestLogSoftmax:
    def test_consistent_with_softmax(self):
        x = np.array([[0.5, -1.0, 2.0]])
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))

    @given(x=_logit_rows)
    @settings(max_examples=50, deadline=None)
    def test_always_nonpositive(self, x):
        assert np.all(log_softmax(x, axis=1) <= 1e-12)


class TestLogsumexp:
    def test_matches_naive_small_values(self):
        x = np.array([0.1, 0.2, 0.3])
        assert logsumexp(x) == pytest.approx(np.log(np.exp(x).sum()))

    def test_large_values_stable(self):
        assert logsumexp(np.array([1e4, 1e4])) == pytest.approx(1e4 + np.log(2.0))

    def test_keepdims(self):
        x = np.ones((2, 3))
        assert logsumexp(x, axis=1, keepdims=True).shape == (2, 1)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetric(self):
        x = np.array([1.7])
        assert sigmoid(x)[0] + sigmoid(-x)[0] == pytest.approx(1.0)

    def test_extreme_tails(self):
        values = sigmoid(np.array([-800.0, 800.0]))
        assert values[0] == 0.0
        assert values[1] == 1.0
        assert np.all(np.isfinite(values))

    @given(x=arrays(np.float64, st.integers(1, 20), elements=st.floats(-700, 700)))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, x):
        values = sigmoid(x)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)


class TestOneHot:
    def test_encoding(self):
        encoded = one_hot(np.array([0, 2]), depth=3)
        assert np.array_equal(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), depth=3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), depth=3)


class TestNormalizeRows:
    def test_unit_norms(self):
        matrix = np.array([[3.0, 4.0], [1.0, 0.0]])
        normalized = normalize_rows(matrix)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_row_safe(self):
        normalized = normalize_rows(np.zeros((2, 3)))
        assert np.all(np.isfinite(normalized))

    def test_makes_cosine_equal_dot(self):
        rng = np.random.default_rng(0)
        matrix = normalize_rows(rng.normal(size=(4, 8)))
        dot = matrix @ matrix[0]
        cosine = (matrix @ matrix[0]) / (
            np.linalg.norm(matrix, axis=1) * np.linalg.norm(matrix[0])
        )
        assert np.allclose(dot, cosine)
