"""Tests for repro.models.windowing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.models.windowing import (
    BatchIterator,
    pairs_from_sequence,
    pairs_from_sequences,
    window_pair_counts,
)


class TestPairsFromSequence:
    def test_window_one(self):
        pairs = pairs_from_sequence([1, 2, 3], window=1)
        assert pairs == [(1, 2), (2, 1), (2, 3), (3, 2)]

    def test_window_covers_both_sides(self):
        pairs = pairs_from_sequence([5, 6, 7], window=2)
        assert (5, 7) in pairs
        assert (7, 5) in pairs

    def test_single_element_no_pairs(self):
        assert pairs_from_sequence([4], window=2) == []

    def test_no_self_pairs_from_position(self):
        # A position never pairs with itself (repeated values may pair).
        pairs = pairs_from_sequence([1, 2, 3, 4], window=3)
        for target, context in pairs:
            assert (target, context) != (target, target) or target != context

    def test_rejects_window_zero(self):
        with pytest.raises(ConfigError):
            pairs_from_sequence([1, 2], window=0)

    @given(
        sequence=st.lists(st.integers(0, 9), min_size=2, max_size=20),
        window=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_count_formula(self, sequence, window):
        # Each position i contributes min(i, w) + min(n-1-i, w) pairs.
        n = len(sequence)
        expected = sum(min(i, window) + min(n - 1 - i, window) for i in range(n))
        assert len(pairs_from_sequence(sequence, window)) == expected

    @given(
        sequence=st.lists(st.integers(0, 9), min_size=2, max_size=20),
        window=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, sequence, window):
        # Window pairs come in symmetric (a, b) / (b, a) position pairs.
        from collections import Counter

        counts = Counter(pairs_from_sequence(sequence, window))
        flipped = Counter((b, a) for a, b in counts.elements())
        assert counts == flipped


class TestPairsFromSequences:
    def test_stacks(self):
        pairs = pairs_from_sequences([[1, 2], [3, 4]], window=1)
        assert pairs.shape == (4, 2)

    def test_empty_input(self):
        pairs = pairs_from_sequences([[1]], window=2)
        assert pairs.shape == (0, 2)
        assert pairs.dtype == np.int64

    def test_rejects_window_zero(self):
        with pytest.raises(ConfigError):
            pairs_from_sequences([[1, 2]], window=0)

    @given(
        sequences=st.lists(
            st.lists(st.integers(0, 9), max_size=12), max_size=6
        ),
        window=st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_per_sequence_pairs_in_order(self, sequences, window):
        expected = [
            pair for sequence in sequences
            for pair in pairs_from_sequence(sequence, window)
        ]
        pairs = pairs_from_sequences(sequences, window)
        assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
        assert [tuple(row) for row in pairs.tolist()] == expected
        lengths = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
        counts = window_pair_counts(lengths, window)
        assert counts.tolist() == [
            len(pairs_from_sequence(sequence, window)) if sequence else 0
            for sequence in sequences
        ]


class TestBatchIterator:
    def _pairs(self, n: int) -> np.ndarray:
        return np.column_stack([np.arange(n), np.arange(n) + 100])

    def test_batch_sizes(self):
        iterator = BatchIterator(self._pairs(10), batch_size=4, rng=0)
        sizes = [len(targets) for targets, _ in iterator]
        assert sizes == [4, 4, 2]

    def test_len(self):
        assert len(BatchIterator(self._pairs(10), batch_size=4)) == 3
        assert len(BatchIterator(self._pairs(8), batch_size=4)) == 2

    def test_covers_all_pairs(self):
        iterator = BatchIterator(self._pairs(13), batch_size=5, rng=1)
        seen = sorted(
            target for targets, _ in iterator for target in targets.tolist()
        )
        assert seen == list(range(13))

    def test_pairs_stay_aligned(self):
        iterator = BatchIterator(self._pairs(20), batch_size=6, rng=2)
        for targets, contexts in iterator:
            assert np.array_equal(contexts, targets + 100)

    def test_shuffle_changes_order(self):
        pairs = self._pairs(50)
        ordered = BatchIterator(pairs, batch_size=50, shuffle=False)
        shuffled = BatchIterator(pairs, batch_size=50, rng=3)
        (ordered_targets, _), = list(ordered)
        (shuffled_targets, _), = list(shuffled)
        assert not np.array_equal(ordered_targets, shuffled_targets)

    def test_empty_pairs(self):
        iterator = BatchIterator(np.empty((0, 2), dtype=np.int64), batch_size=4)
        assert list(iterator) == []

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            BatchIterator(np.zeros((3, 3)), batch_size=2)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError):
            BatchIterator(self._pairs(4), batch_size=0)
