"""Dataset analysis: verifying the statistical profile the paper relies on.

The paper's method is motivated by specific properties of check-in data:
check-in frequencies "follow Zipf's law" (Section 4.1, citing Cho et al.),
density around 0.1% (Section 1), long-tailed per-user activity. These
utilities measure those properties on any :class:`CheckinDataset`, so the
synthetic workload's fidelity — and any real dataset's shape — can be
audited quantitatively.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.data.checkins import CheckinDataset
from repro.data.splitting import SIX_HOURS_SECONDS, sessionize
from repro.exceptions import DataError


@dataclass(frozen=True, slots=True)
class ZipfFit:
    """Least-squares fit of ``log(frequency) = -s * log(rank) + c``."""

    exponent: float
    r_squared: float
    num_items: int


def location_frequency_zipf_fit(dataset: CheckinDataset) -> ZipfFit:
    """Fit a Zipf exponent to the location check-in frequency distribution.

    Returns:
        The fitted exponent ``s`` (Zipf's law: s around 1), the fit's R^2,
        and the number of distinct locations.

    Raises:
        DataError: with fewer than three distinct locations.
    """
    counts = Counter(
        checkin.location for history in dataset for checkin in history.checkins
    )
    frequencies = np.sort(np.array(list(counts.values()), dtype=np.float64))[::-1]
    if frequencies.size < 3:
        raise DataError("Zipf fit needs at least 3 distinct locations")
    ranks = np.arange(1, frequencies.size + 1, dtype=np.float64)
    x = np.log(ranks)
    y = np.log(frequencies)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residual = float(np.sum((y - predicted) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return ZipfFit(
        exponent=float(-slope), r_squared=r_squared, num_items=frequencies.size
    )


@dataclass(frozen=True, slots=True)
class ActivitySummary:
    """Percentile summary of per-user check-in counts."""

    p10: float
    p50: float
    p90: float
    p99: float
    mean: float
    tail_ratio: float  # p99 / p50: heavy-tail indicator


def user_activity_summary(dataset: CheckinDataset) -> ActivitySummary:
    """Percentiles of the per-user check-in count distribution."""
    counts = np.array([len(history) for history in dataset], dtype=np.float64)
    p10, p50, p90, p99 = np.percentile(counts, [10, 50, 90, 99])
    return ActivitySummary(
        p10=float(p10),
        p50=float(p50),
        p90=float(p90),
        p99=float(p99),
        mean=float(counts.mean()),
        tail_ratio=float(p99 / p50) if p50 > 0 else float("inf"),
    )


@dataclass(frozen=True, slots=True)
class SessionSummary:
    """Session structure under the paper's 6-hour rule."""

    num_sessions: int
    mean_length: float
    max_length: int
    mean_duration_minutes: float
    repeat_visit_rate: float  # within-session repeated POIs


def session_summary(
    dataset: CheckinDataset, max_duration_seconds: float = SIX_HOURS_SECONDS
) -> SessionSummary:
    """Sessionize every user and summarize trajectory structure."""
    lengths: list[int] = []
    durations: list[float] = []
    repeats = transitions = 0
    for history in dataset:
        for trajectory in sessionize(history, max_duration_seconds):
            lengths.append(len(trajectory))
            durations.append(trajectory.duration)
            seen: set[int] = set()
            for location in trajectory.locations:
                if location in seen:
                    repeats += 1
                seen.add(location)
                transitions += 1
    if not lengths:
        raise DataError("dataset produced no sessions")
    return SessionSummary(
        num_sessions=len(lengths),
        mean_length=float(np.mean(lengths)),
        max_length=int(max(lengths)),
        mean_duration_minutes=float(np.mean(durations)) / 60.0,
        repeat_visit_rate=repeats / transitions if transitions else 0.0,
    )
