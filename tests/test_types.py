"""Tests for repro.types and repro.exceptions."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ConfigError,
    DataError,
    PrivacyBudgetExceeded,
    ReproError,
)
from repro.types import (
    CheckIn,
    Trajectory,
    UserHistory,
    group_by_user,
)


class TestCheckIn:
    def test_fields(self):
        checkin = CheckIn(user=1, location=2, timestamp=3.0)
        assert checkin.user == 1
        assert checkin.location == 2
        assert checkin.timestamp == 3.0

    def test_coordinates_default_to_nan(self):
        checkin = CheckIn(user=1, location=2, timestamp=3.0)
        assert not checkin.has_coordinates()

    def test_has_coordinates_true(self):
        checkin = CheckIn(user=1, location=2, timestamp=3.0, latitude=35.6, longitude=139.7)
        assert checkin.has_coordinates()

    def test_frozen(self):
        checkin = CheckIn(user=1, location=2, timestamp=3.0)
        with pytest.raises(AttributeError):
            checkin.user = 5  # type: ignore[misc]


class TestTrajectory:
    def test_length_and_iteration(self):
        trajectory = Trajectory(user=1, locations=(3, 1, 4))
        assert len(trajectory) == 3
        assert list(trajectory) == [3, 1, 4]

    def test_timestamp_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(user=1, locations=(1, 2), timestamps=(1.0,))

    def test_duration(self):
        trajectory = Trajectory(user=1, locations=(1, 2, 3), timestamps=(0.0, 5.0, 9.0))
        assert trajectory.duration == 9.0

    def test_duration_untimed_is_zero(self):
        assert Trajectory(user=1, locations=(1, 2)).duration == 0.0

    def test_prefix(self):
        trajectory = Trajectory(user=1, locations=(1, 2, 3), timestamps=(0.0, 1.0, 2.0))
        prefix = trajectory.prefix(2)
        assert prefix.locations == (1, 2)
        assert prefix.timestamps == (0.0, 1.0)
        assert prefix.user == 1


class TestUserHistory:
    def test_add_keeps_time_order(self):
        history = UserHistory(user=7)
        history.add(CheckIn(user=7, location=1, timestamp=10.0))
        history.add(CheckIn(user=7, location=2, timestamp=5.0))
        assert history.locations() == [2, 1]
        assert history.timestamps() == [5.0, 10.0]

    def test_rejects_foreign_user(self):
        history = UserHistory(user=7)
        with pytest.raises(ValueError):
            history.add(CheckIn(user=8, location=1, timestamp=0.0))


class TestGroupByUser:
    def test_partitions_and_sorts(self):
        checkins = [
            CheckIn(user=1, location=10, timestamp=2.0),
            CheckIn(user=2, location=20, timestamp=1.0),
            CheckIn(user=1, location=11, timestamp=1.0),
        ]
        histories = group_by_user(checkins)
        assert set(histories) == {1, 2}
        assert histories[1].locations() == [11, 10]
        assert histories[2].locations() == [20]

    def test_empty_input(self):
        assert group_by_user([]) == {}


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)
        assert issubclass(DataError, ReproError)

    def test_privacy_budget_exceeded_message(self):
        error = PrivacyBudgetExceeded(spent=2.5, budget=2.0)
        assert error.spent == 2.5
        assert error.budget == 2.0
        assert "2.5" in str(error)
