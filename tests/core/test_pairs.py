"""Tests for the shared training-data preparation (core._pairs)."""

from __future__ import annotations

import pytest

from repro.core._pairs import build_pair_source
from repro.data.checkins import CheckinDataset
from repro.data.store import open_corpus
from repro.exceptions import ConfigError, DataError
from repro.models.windowing import pairs_from_sequences
from repro.types import CheckIn


def _dataset(times_by_user: dict[int, list[float]]) -> CheckinDataset:
    checkins = []
    location = 0
    for user, times in times_by_user.items():
        for t in times:
            checkins.append(CheckIn(user=user, location=location % 5, timestamp=t))
            location += 1
    return CheckinDataset(checkins)


def build_training_data(dataset, window, sessionize_training=True):
    """The vocabulary and every user's pair array of an in-memory corpus."""
    vocabulary, source = build_pair_source(
        open_corpus(dataset), window, sessionize_training
    )
    return vocabulary, {user: source.pairs(user) for user in source.users}


class TestBuildTrainingData:
    def test_every_user_has_entry(self, split_dataset):
        train, _ = split_dataset
        _, user_pairs = build_training_data(train, window=2)
        assert set(user_pairs) == set(train.users)

    def test_pair_tokens_within_vocab(self, split_dataset):
        train, _ = split_dataset
        vocabulary, user_pairs = build_training_data(train, window=2)
        for pairs in user_pairs.values():
            if pairs.size:
                assert pairs.min() >= 0
                assert pairs.max() < vocabulary.size

    def test_sessionization_limits_windows(self):
        # Two check-ins 10 hours apart: sessionized -> no pairs;
        # full-history -> one pair each way.
        dataset = _dataset({1: [0.0, 36_000.0], 2: [0.0, 1.0, 2.0]})
        _, sessionized = build_training_data(dataset, window=2, sessionize_training=True)
        assert sessionized[1].shape[0] == 0
        _, full = build_training_data(dataset, window=2, sessionize_training=False)
        assert full[1].shape[0] == 2

    def test_no_pairs_raises(self):
        dataset = _dataset({1: [0.0], 2: [5.0]})
        with pytest.raises(DataError):
            build_training_data(dataset, window=2)

    def test_window_width_controls_pair_count(self, split_dataset):
        train, _ = split_dataset
        _, narrow = build_training_data(train, window=1)
        _, wide = build_training_data(train, window=3)
        narrow_total = sum(p.shape[0] for p in narrow.values())
        wide_total = sum(p.shape[0] for p in wide.values())
        assert wide_total > narrow_total


class TestWindowValidation:
    def test_empty_input_still_checks_window(self):
        with pytest.raises(ConfigError, match="window"):
            pairs_from_sequences([], 0)

    def test_scan_rejects_window_below_one(self, split_dataset):
        train, _ = split_dataset
        with pytest.raises(ConfigError, match="window"):
            build_pair_source(open_corpus(train), window=0)
