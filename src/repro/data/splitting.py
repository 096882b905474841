"""Holdout-users split and trajectory sessionization (Section 5.1).

"First, a randomly selected set of 100 users and their corresponding
check-ins are removed from the dataset. From these, time ordered sequences
of trajectories are generated. Each individual trajectory does not exceed
a total duration of six hours. The remaining users and their check-ins
represent the training dataset."

The held-out users' trajectories drive the leave-one-out evaluation; since
the model learns only location representations (no per-user parameters),
evaluating on unseen users matches real-life deployment.
"""

from __future__ import annotations

import numpy as np

from repro.data.checkins import CheckinDataset
from repro.exceptions import DataError
from repro.rng import RngLike, ensure_rng
from repro.types import Trajectory, UserHistory

SIX_HOURS_SECONDS = 6 * 3600.0


def holdout_users_split(
    dataset: CheckinDataset, num_holdout: int, rng: RngLike = None
) -> tuple[CheckinDataset, CheckinDataset]:
    """Randomly split users into (training, holdout) datasets.

    Args:
        dataset: the full preprocessed dataset.
        num_holdout: how many users to hold out (the paper holds out 100,
            then splits those into validation and test halves at its scale).
        rng: randomness for the user selection.

    Returns:
        ``(train, holdout)`` datasets over disjoint user sets.

    Raises:
        DataError: when ``num_holdout`` leaves no training users.
    """
    users = dataset.users
    if not 0 < num_holdout < len(users):
        raise DataError(
            f"num_holdout must be in (0, {len(users)}), got {num_holdout}"
        )
    generator = ensure_rng(rng)
    shuffled = list(users)
    generator.shuffle(shuffled)
    holdout_users = set(shuffled[:num_holdout])
    train_users = [user for user in users if user not in holdout_users]
    return dataset.subset(train_users), dataset.subset(holdout_users)


def sessionize(
    history: UserHistory, max_duration_seconds: float = SIX_HOURS_SECONDS
) -> list[Trajectory]:
    """Split one user's history into trajectories of bounded total duration.

    A new trajectory starts whenever appending the next check-in would make
    the trajectory span more than ``max_duration_seconds`` from its first
    check-in (the paper's 6-hour rule, following Chang et al. / Liu et al.).
    """
    if max_duration_seconds <= 0.0:
        raise DataError(
            f"max_duration_seconds must be positive, got {max_duration_seconds}"
        )
    trajectories: list[Trajectory] = []
    locations: list[int] = []
    timestamps: list[float] = []
    for checkin in history.checkins:
        if timestamps and checkin.timestamp - timestamps[0] > max_duration_seconds:
            trajectories.append(
                Trajectory(
                    user=history.user,
                    locations=tuple(locations),
                    timestamps=tuple(timestamps),
                )
            )
            locations, timestamps = [], []
        locations.append(checkin.location)
        timestamps.append(checkin.timestamp)
    if locations:
        trajectories.append(
            Trajectory(
                user=history.user,
                locations=tuple(locations),
                timestamps=tuple(timestamps),
            )
        )
    return trajectories


def session_starts(
    timestamps: np.ndarray,
    user_offsets: np.ndarray,
    max_duration_seconds: float = SIX_HOURS_SECONDS,
) -> np.ndarray:
    """Where :func:`sessionize` starts a trajectory, over many users at once.

    ``timestamps`` holds user histories back to back: user ``i`` owns
    ``timestamps[user_offsets[i]:user_offsets[i + 1]]``. Returns the
    ascending flat positions of every trajectory's first check-in, split
    by the same rule and the same float comparison as :func:`sessionize`,
    so the trajectories are identical — without building a check-in or
    trajectory object per row.

    In a time-sorted history a gap longer than the limit always starts a
    trajectory: the span from the current start is at least the gap.
    The run up to the next such gap splits again only if its own span
    exceeds the limit. Only those runs, and histories that are not sorted
    (or hold NaN), are walked row by row.
    """
    if max_duration_seconds <= 0.0:
        raise DataError(
            f"max_duration_seconds must be positive, got {max_duration_seconds}"
        )
    times = np.asarray(timestamps, dtype=np.float64)
    lengths = np.diff(np.asarray(user_offsets, dtype=np.int64))
    firsts = np.asarray(user_offsets[:-1], dtype=np.int64)[lengths > 0]
    lengths = lengths[lengths > 0]
    if not firsts.size:
        return firsts
    ends = firsts + lengths
    row_user = np.repeat(np.arange(firsts.size), lengths)

    gap = np.empty(times.size, dtype=np.float64)
    # Infinite timestamps make inf - inf steps: NaN, flagged just below.
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(times[1:], times[:-1], out=gap[1:])
        gap[firsts] = 0.0
        # ``not >=`` also flags NaN steps, which the gap rule cannot judge.
        unsorted = np.logical_or.reduceat(~(gap >= 0.0), firsts)
        fast = gap > max_duration_seconds
        fast[firsts] = True
        fast &= ~unsorted[row_user]
        runs = np.flatnonzero(fast)
        run_ends = np.minimum(
            np.append(runs[1:], times.size), ends[row_user[runs]]
        )
        long_runs = times[run_ends - 1] - times[runs] > max_duration_seconds

    found = [runs, firsts[unsorted]]
    walks = list(zip(runs[long_runs].tolist(), run_ends[long_runs].tolist()))
    walks += zip(firsts[unsorted].tolist(), ends[unsorted].tolist())
    values = times.tolist() if walks else []
    for begin, end in walks:
        first = values[begin]
        split: list[int] = []
        for position in range(begin + 1, end):
            if values[position] - first > max_duration_seconds:
                split.append(position)
                first = values[position]
        found.append(np.asarray(split, dtype=np.int64))
    return np.sort(np.concatenate(found))


def sessionize_dataset(
    dataset: CheckinDataset,
    max_duration_seconds: float = SIX_HOURS_SECONDS,
    min_length: int = 2,
) -> list[Trajectory]:
    """Sessionize every user and keep trajectories long enough to evaluate.

    Args:
        dataset: check-in data to sessionize.
        max_duration_seconds: trajectory duration bound (paper: 6 hours).
        min_length: trajectories shorter than this are dropped (leave-one-out
            needs at least an input visit and a target visit).
    """
    if min_length < 1:
        raise DataError(f"min_length must be >= 1, got {min_length}")
    trajectories: list[Trajectory] = []
    for history in dataset:
        for trajectory in sessionize(history, max_duration_seconds):
            if len(trajectory) >= min_length:
                trajectories.append(trajectory)
    return trajectories
