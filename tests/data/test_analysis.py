"""Tests for dataset analysis utilities."""

from __future__ import annotations

import pytest

from repro.data.analysis import (
    location_frequency_zipf_fit,
    session_summary,
    user_activity_summary,
)
from repro.data.checkins import CheckinDataset
from repro.exceptions import DataError
from repro.types import CheckIn


def _zipf_dataset(exponent: float, num_locations: int = 60) -> CheckinDataset:
    """Synthesize check-ins whose location frequencies are exactly Zipf."""
    checkins = []
    t = 0.0
    for rank in range(1, num_locations + 1):
        count = max(1, int(round(1000.0 * rank ** (-exponent))))
        for _ in range(count):
            checkins.append(CheckIn(user=rank % 7, location=rank - 1, timestamp=t))
            t += 1.0
    return CheckinDataset(checkins)


class TestZipfFit:
    def test_recovers_exponent(self):
        for true_exponent in (0.8, 1.0, 1.2):
            fit = location_frequency_zipf_fit(_zipf_dataset(true_exponent))
            assert fit.exponent == pytest.approx(true_exponent, abs=0.15)
            assert fit.r_squared > 0.95

    def test_synthetic_workload_is_zipfian(self, small_dataset):
        fit = location_frequency_zipf_fit(small_dataset)
        # The generator draws popularity from Zipf(1.0); preprocessing and
        # user preference mixing flatten it somewhat.
        assert 0.2 < fit.exponent < 2.0
        assert fit.num_items == small_dataset.num_locations

    def test_too_few_locations(self):
        checkins = [CheckIn(user=0, location=0, timestamp=0.0),
                    CheckIn(user=1, location=1, timestamp=1.0)]
        with pytest.raises(DataError):
            location_frequency_zipf_fit(CheckinDataset(checkins))


class TestActivitySummary:
    def test_percentile_ordering(self, small_dataset):
        summary = user_activity_summary(small_dataset)
        assert summary.p10 <= summary.p50 <= summary.p90 <= summary.p99
        assert summary.mean > 0
        assert summary.tail_ratio >= 1.0

    def test_uniform_counts(self):
        checkins = [
            CheckIn(user=u, location=i, timestamp=float(i))
            for u in range(5)
            for i in range(4)
        ]
        summary = user_activity_summary(CheckinDataset(checkins))
        assert summary.p10 == summary.p99 == 4.0
        assert summary.tail_ratio == 1.0


class TestSessionSummary:
    def test_fields(self, small_dataset):
        summary = session_summary(small_dataset)
        assert summary.num_sessions > 0
        assert 1.0 <= summary.mean_length <= summary.max_length
        assert summary.mean_duration_minutes < 6 * 60
        assert 0.0 <= summary.repeat_visit_rate < 0.2

    def test_single_user_sessions(self):
        checkins = [
            CheckIn(user=0, location=i, timestamp=i * 3600.0) for i in range(4)
        ]
        summary = session_summary(CheckinDataset(checkins))
        # 4 check-ins at 1-hour spacing: first 4 hours fit in one 6h window
        # only until duration exceeds 6h from the session start.
        assert summary.num_sessions >= 1
        assert summary.max_length <= 4
