"""Tests for the scatter-add primitive underlying sparse SGD updates.

:class:`~repro.nn.functional.RowScatter` (built by
:func:`~repro.nn.functional.plan_row_scatters`) is the one
``matrix[rows] += values`` with duplicate rows summed that the reference
kernel uses.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import plan_row_scatters


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] += values`` through a one-segment plan."""
    plan_row_scatters([np.asarray(rows, dtype=np.int64)])[0].add(matrix, values)


class TestScatterAddRows:
    def test_matches_add_at_2d(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 20, size=100)
        values = rng.normal(size=(100, 7))
        expected = np.zeros((20, 7))
        np.add.at(expected, rows, values)
        actual = np.zeros((20, 7))
        _scatter_add(actual, rows, values)
        assert np.allclose(actual, expected)

    def test_matches_add_at_1d(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10, size=50)
        values = rng.normal(size=50)
        expected = np.zeros(10)
        np.add.at(expected, rows, values)
        actual = np.zeros(10)
        _scatter_add(actual, rows, values)
        assert np.allclose(actual, expected)

    def test_duplicates_accumulate(self):
        matrix = np.zeros((3, 2))
        _scatter_add(matrix, np.array([1, 1, 1]), np.ones((3, 2)))
        assert np.allclose(matrix[1], [3.0, 3.0])
        assert np.allclose(matrix[0], 0.0)

    def test_empty_rows_noop(self):
        # An empty segment planned next to a non-empty one adds nothing.
        matrix = np.ones((3, 2))
        empty, _ = plan_row_scatters([np.array([], dtype=np.int64), np.array([1])])
        empty.add(matrix, np.empty((0, 2)))
        assert np.allclose(matrix, 1.0)

    def test_single_row(self):
        matrix = np.zeros((3, 2))
        _scatter_add(matrix, np.array([2]), np.array([[5.0, 6.0]]))
        assert np.allclose(matrix[2], [5.0, 6.0])

    def test_adds_to_existing_content(self):
        matrix = np.full((4, 2), 10.0)
        _scatter_add(matrix, np.array([0, 0]), np.ones((2, 2)))
        assert np.allclose(matrix[0], 12.0)
        assert np.allclose(matrix[1], 10.0)

    @given(
        num_rows=st.integers(1, 12),
        num_updates=st.integers(1, 60),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, num_rows, num_updates, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, num_rows, size=num_updates)
        values = rng.normal(size=(num_updates, 3))
        expected = np.zeros((num_rows, 3))
        np.add.at(expected, rows, values)
        actual = np.zeros((num_rows, 3))
        _scatter_add(actual, rows, values)
        assert np.allclose(actual, expected)
