"""Tests for holdout splitting and 6-hour sessionization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.splitting import (
    SIX_HOURS_SECONDS,
    holdout_users_split,
    session_starts,
    sessionize,
    sessionize_dataset,
)
from repro.exceptions import DataError
from repro.types import CheckIn, UserHistory


def _history(user: int, times: list[float]) -> UserHistory:
    history = UserHistory(user=user)
    for i, t in enumerate(times):
        history.add(CheckIn(user=user, location=i, timestamp=t))
    return history


class TestSessionize:
    def test_single_session_within_six_hours(self):
        history = _history(1, [0.0, 3600.0, 7200.0])
        trajectories = sessionize(history)
        assert len(trajectories) == 1
        assert trajectories[0].locations == (0, 1, 2)

    def test_splits_on_duration(self):
        history = _history(1, [0.0, 3600.0, SIX_HOURS_SECONDS + 3600.0])
        trajectories = sessionize(history)
        assert len(trajectories) == 2
        assert trajectories[0].locations == (0, 1)
        assert trajectories[1].locations == (2,)

    def test_duration_is_measured_from_trajectory_start(self):
        # Check-ins every 4 hours: each pair fits in 6h, but the third is
        # 8h after the first -> split after two.
        hours = 3600.0
        history = _history(1, [0.0, 4 * hours, 8 * hours, 12 * hours])
        trajectories = sessionize(history)
        assert [len(t) for t in trajectories] == [2, 2]

    def test_every_trajectory_within_bound(self):
        history = _history(1, [float(i) * 7000.0 for i in range(20)])
        for trajectory in sessionize(history):
            assert trajectory.duration <= SIX_HOURS_SECONDS

    def test_empty_history(self):
        assert sessionize(UserHistory(user=1)) == []

    def test_bad_bound_rejected(self):
        with pytest.raises(DataError):
            sessionize(_history(1, [0.0]), max_duration_seconds=0.0)


class TestSessionizeDataset:
    def test_min_length_filter(self, small_dataset):
        trajectories = sessionize_dataset(small_dataset, min_length=2)
        assert all(len(t) >= 2 for t in trajectories)

    def test_preserves_user_attribution(self, small_dataset):
        trajectories = sessionize_dataset(small_dataset)
        users = {t.user for t in trajectories}
        assert users <= set(small_dataset.users)

    def test_checkin_conservation(self, small_dataset):
        # With min_length=1, sessionization is a partition of all check-ins.
        trajectories = sessionize_dataset(small_dataset, min_length=1)
        assert sum(len(t) for t in trajectories) == small_dataset.num_checkins

    def test_bad_min_length(self, small_dataset):
        with pytest.raises(DataError):
            sessionize_dataset(small_dataset, min_length=0)


class TestHoldoutSplit:
    def test_disjoint_and_complete(self, small_dataset):
        train, holdout = holdout_users_split(small_dataset, 10, rng=1)
        train_users = set(train.users)
        holdout_users = set(holdout.users)
        assert not train_users & holdout_users
        assert train_users | holdout_users == set(small_dataset.users)
        assert len(holdout_users) == 10

    def test_checkins_conserved(self, small_dataset):
        train, holdout = holdout_users_split(small_dataset, 10, rng=1)
        assert (
            train.num_checkins + holdout.num_checkins == small_dataset.num_checkins
        )

    def test_deterministic(self, small_dataset):
        _, holdout_a = holdout_users_split(small_dataset, 10, rng=9)
        _, holdout_b = holdout_users_split(small_dataset, 10, rng=9)
        assert set(holdout_a.users) == set(holdout_b.users)

    def test_invalid_sizes_rejected(self, small_dataset):
        with pytest.raises(DataError):
            holdout_users_split(small_dataset, 0)
        with pytest.raises(DataError):
            holdout_users_split(small_dataset, small_dataset.num_users)


_TIMES = st.one_of(
    st.floats(0.0, 30.0),
    st.sampled_from([0.0, 10.0, 10.0 + 1e-12, math.inf, -math.inf, math.nan]),
)


class TestSessionStarts:
    """The flat-array split starts exactly the trajectories sessionize makes."""

    @given(
        histories=st.lists(
            st.tuples(st.lists(_TIMES, max_size=10), st.booleans()), max_size=6
        ),
        limit=st.sampled_from([1.0, 2.5, 10.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sessionize(self, histories, limit):
        times: list[float] = []
        offsets = [0]
        expected: list[int] = []
        for user, (raw, sort) in enumerate(histories):
            stamps = sorted(raw, key=lambda t: (math.isnan(t), t)) if sort else raw
            history = UserHistory(
                user=user,
                checkins=[
                    CheckIn(user=user, location=0, timestamp=t) for t in stamps
                ],
            )
            for trajectory in sessionize(history, limit):
                expected.append(len(times))
                times.extend(trajectory.timestamps)
            offsets.append(len(times))
        starts = session_starts(
            np.array(times, dtype=np.float64), np.array(offsets), limit
        )
        assert starts.dtype == np.int64
        assert starts.tolist() == expected

    def test_long_run_without_gaps_is_walked(self):
        # Hourly check-ins: no single gap exceeds 6h, the span does.
        times = np.arange(20, dtype=np.float64) * 3600.0
        starts = session_starts(times, np.array([0, 20]))
        assert starts.tolist() == [0, 7, 14]

    def test_rejects_non_positive_limit(self):
        with pytest.raises(DataError):
            session_starts(np.zeros(2), np.array([0, 2]), 0.0)
