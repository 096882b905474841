"""Core value types shared across the :mod:`repro` packages.

The paper's data model (Section 3.1): a set of users ``U``, a set of
check-in locations (POIs) ``P``, and for each user a historical record of
check-ins ``Uu = {c1, c2, ...}`` where each element is a triplet
``<user, location, time>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class CheckIn:
    """One check-in record: the triplet ``<user, location, time>``.

    Attributes:
        user: user identifier.
        location: POI identifier.
        timestamp: seconds since an arbitrary epoch (ordering is what
            matters; the paper sessionizes on 6-hour gaps).
        latitude: optional POI latitude (used by the geo-ind extension
            and the bounding-box preprocessing filter).
        longitude: optional POI longitude.
    """

    user: int
    location: int
    timestamp: float
    latitude: float = float("nan")
    longitude: float = float("nan")

    def has_coordinates(self) -> bool:
        """Return ``True`` when both latitude and longitude are present."""
        return self.latitude == self.latitude and self.longitude == self.longitude


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A time-ordered sequence of locations visited by one user.

    A trajectory is the unit used both for skip-gram window generation (a
    "sentence") and for leave-one-out evaluation (first ``t - 1`` visits
    predict the ``t``-th).
    """

    user: int
    locations: tuple[int, ...]
    timestamps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.timestamps and len(self.timestamps) != len(self.locations):
            raise ValueError(
                "timestamps and locations must have equal length "
                f"({len(self.timestamps)} != {len(self.locations)})"
            )

    def __len__(self) -> int:
        return len(self.locations)

    def __iter__(self) -> Iterator[int]:
        return iter(self.locations)

    @property
    def duration(self) -> float:
        """Total time span of the trajectory in seconds (0 if untimed)."""
        if len(self.timestamps) < 2:
            return 0.0
        return self.timestamps[-1] - self.timestamps[0]

    def prefix(self, length: int) -> "Trajectory":
        """Return the trajectory truncated to its first ``length`` visits."""
        return Trajectory(
            user=self.user,
            locations=self.locations[:length],
            timestamps=self.timestamps[:length] if self.timestamps else (),
        )


@dataclass(slots=True)
class UserHistory:
    """All check-ins of one user, kept in timestamp order."""

    user: int
    checkins: list[CheckIn] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.checkins)

    def add(self, checkin: CheckIn) -> None:
        """Append a check-in, keeping the history sorted by timestamp."""
        if checkin.user != self.user:
            raise ValueError(
                f"check-in for user {checkin.user} added to history of {self.user}"
            )
        self.checkins.append(checkin)
        if len(self.checkins) > 1 and checkin.timestamp < self.checkins[-2].timestamp:
            self.checkins.sort(key=lambda c: c.timestamp)

    def locations(self) -> list[int]:
        """Return the visited location ids in time order."""
        return [c.location for c in self.checkins]

    def timestamps(self) -> list[float]:
        """Return the check-in timestamps in time order."""
        return [c.timestamp for c in self.checkins]


def group_by_user(checkins: Iterable[CheckIn]) -> dict[int, UserHistory]:
    """Partition a stream of check-ins into per-user histories.

    Args:
        checkins: any iterable of :class:`CheckIn` records, in any order.

    Returns:
        Mapping from user id to that user's time-sorted :class:`UserHistory`.
    """
    histories: dict[int, UserHistory] = {}
    for checkin in checkins:
        history = histories.get(checkin.user)
        if history is None:
            history = UserHistory(user=checkin.user)
            histories[checkin.user] = history
        history.add(checkin)
    for history in histories.values():
        history.checkins.sort(key=lambda c: c.timestamp)
    return histories
