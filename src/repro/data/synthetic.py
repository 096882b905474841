"""Synthetic Foursquare-like check-in generator.

The paper evaluates on Foursquare check-ins inside a 35 x 25 km^2 Tokyo
bounding box: 739,828 check-ins, 4,602 users, 5,069 POIs over 22 months,
with density around 0.1% and Zipf-distributed check-in frequencies
(Section 5.1; Cho et al. for the Zipf observation). The raw dataset is not
redistributable, so this module synthesizes data with the same statistical
profile:

- **POIs** are placed in Gaussian *clusters* (neighborhoods) inside the
  Tokyo bbox; every POI carries a Zipf popularity rank within its cluster.
- **Users** have a small set of preferred clusters and a heavy-tailed
  (lognormal) total check-in count.
- **Check-ins** arrive in *sessions*: a user picks a cluster (mostly a
  preferred one), then checks into a handful of POIs of that cluster drawn
  from its Zipf popularity, with a small probability of jumping clusters
  mid-session. Sessions are a few hours long; gaps between sessions are
  hours-to-days; the whole span covers ~22 months.

The generator therefore reproduces the properties the paper's method
actually interacts with — sparsity, popularity skew, user heterogeneity,
and location co-occurrence structure (locations of one cluster co-occur in
windows, which is the signal skip-gram embeds and the recommender exploits
for held-out users).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigError
from repro.rng import RngLike, ensure_rng
from repro.types import CheckIn

if TYPE_CHECKING:
    from pathlib import Path

    from repro.data.store import ShardedCheckinStore

# The paper's Tokyo bounding box: (lat_south, lat_north, lon_west, lon_east).
TOKYO_BBOX: tuple[float, float, float, float] = (35.554, 35.759, 139.496, 139.905)

_MONTH_SECONDS = 30 * 86_400.0


@dataclass(frozen=True, slots=True)
class SyntheticConfig:
    """Parameters of the synthetic check-in generator.

    Defaults produce a laptop-scale dataset with the paper's *shape*
    (hundreds of users/POIs rather than thousands); scale up ``num_users``
    and ``num_locations`` for fidelity runs.

    Attributes:
        num_users: number of users to generate.
        num_locations: number of POIs.
        num_clusters: number of spatial neighborhoods POIs belong to.
        zipf_exponent: popularity skew of POIs within a cluster.
        mean_checkins_per_user: mean of the per-user activity distribution
            (the paper's data averages ~161 check-ins/user).
        checkins_sigma: lognormal sigma of per-user activity (tail weight).
        min_checkins_per_user: floor on generated activity (the paper
            filters users below 10 anyway).
        preferred_clusters_per_user: size of each user's cluster repertoire.
        preferred_cluster_prob: probability a session happens in a
            preferred cluster (vs. a uniformly random one).
        session_length_mean: mean POI visits per session (geometric).
        cluster_jump_prob: probability of switching cluster between two
            consecutive check-ins of one session.
        session_gap_hours_mean: mean gap between a user's sessions.
        within_session_gap_minutes: mean gap between check-ins in a session.
        months: total time span of the data.
        bbox: geographic bounding box for POI coordinates.
        cluster_stddev_degrees: spatial spread of each POI cluster.
    """

    num_users: int = 300
    num_locations: int = 300
    num_clusters: int = 12
    zipf_exponent: float = 1.0
    mean_checkins_per_user: float = 60.0
    checkins_sigma: float = 0.6
    min_checkins_per_user: int = 10
    preferred_clusters_per_user: int = 3
    preferred_cluster_prob: float = 0.9
    session_length_mean: float = 4.0
    cluster_jump_prob: float = 0.1
    session_gap_hours_mean: float = 40.0
    within_session_gap_minutes: float = 45.0
    months: float = 22.0
    bbox: tuple[float, float, float, float] = TOKYO_BBOX
    cluster_stddev_degrees: float = 0.008

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ConfigError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_locations < 2:
            raise ConfigError(f"num_locations must be >= 2, got {self.num_locations}")
        if not 1 <= self.num_clusters <= self.num_locations:
            raise ConfigError(
                f"num_clusters must be in [1, num_locations], got {self.num_clusters}"
            )
        if self.zipf_exponent < 0.0:
            raise ConfigError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        if self.mean_checkins_per_user < 1.0:
            raise ConfigError("mean_checkins_per_user must be >= 1")
        if not 0.0 <= self.preferred_cluster_prob <= 1.0:
            raise ConfigError("preferred_cluster_prob must be in [0, 1]")
        if not 0.0 <= self.cluster_jump_prob <= 1.0:
            raise ConfigError("cluster_jump_prob must be in [0, 1]")
        if self.session_length_mean < 1.0:
            raise ConfigError("session_length_mean must be >= 1")
        if self.months <= 0.0:
            raise ConfigError("months must be positive")


@dataclass(slots=True)
class _World:
    """Sampled static world state: POI geography and popularity."""

    cluster_of: np.ndarray  # (L,) cluster id per POI
    members: list[np.ndarray] = field(default_factory=list)  # POIs per cluster
    popularity: list[np.ndarray] = field(default_factory=list)  # Zipf weights per cluster
    latitude: np.ndarray = field(default_factory=lambda: np.empty(0))
    longitude: np.ndarray = field(default_factory=lambda: np.empty(0))


def _zipf_weights(count: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized Zipf weights over ``count`` items with shuffled rank order."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _build_world(config: SyntheticConfig, rng: np.random.Generator) -> _World:
    """Sample POI cluster assignments, coordinates, and popularity."""
    lat_south, lat_north, lon_west, lon_east = config.bbox
    # Every cluster gets at least one POI; the rest are assigned randomly.
    cluster_of = np.concatenate(
        [
            np.arange(config.num_clusters),
            rng.integers(
                0, config.num_clusters, size=config.num_locations - config.num_clusters
            ),
        ]
    )
    rng.shuffle(cluster_of)

    centers_lat = rng.uniform(lat_south, lat_north, size=config.num_clusters)
    centers_lon = rng.uniform(lon_west, lon_east, size=config.num_clusters)
    latitude = np.clip(
        centers_lat[cluster_of]
        + rng.normal(0.0, config.cluster_stddev_degrees, size=config.num_locations),
        lat_south,
        lat_north,
    )
    longitude = np.clip(
        centers_lon[cluster_of]
        + rng.normal(0.0, config.cluster_stddev_degrees, size=config.num_locations),
        lon_west,
        lon_east,
    )

    world = _World(cluster_of=cluster_of, latitude=latitude, longitude=longitude)
    for cluster in range(config.num_clusters):
        members = np.flatnonzero(cluster_of == cluster)
        world.members.append(members)
        world.popularity.append(_zipf_weights(len(members), config.zipf_exponent, rng))
    return world


def _user_activity(config: SyntheticConfig, rng: np.random.Generator) -> int:
    """Draw one user's total check-in count (lognormal, floored)."""
    mu = np.log(config.mean_checkins_per_user) - config.checkins_sigma**2 / 2.0
    count = int(round(float(rng.lognormal(mu, config.checkins_sigma))))
    return max(config.min_checkins_per_user, count)


def _generate_user(
    user: int,
    config: SyntheticConfig,
    world: _World,
    rng: np.random.Generator,
) -> list[CheckIn]:
    """Generate one user's full check-in history."""
    preferred = rng.choice(
        config.num_clusters,
        size=min(config.preferred_clusters_per_user, config.num_clusters),
        replace=False,
    )
    # Users weight their preferred clusters unevenly (a "home" dominates).
    preference_weights = _zipf_weights(len(preferred), 1.0, rng)

    total = _user_activity(config, rng)
    span = config.months * _MONTH_SECONDS
    timestamp = float(rng.uniform(0.0, span * 0.05))
    checkins: list[CheckIn] = []

    while len(checkins) < total:
        if rng.random() < config.preferred_cluster_prob:
            cluster = int(rng.choice(preferred, p=preference_weights))
        else:
            cluster = int(rng.integers(0, config.num_clusters))
        session_length = 1 + rng.geometric(1.0 / config.session_length_mean)
        visited_this_session: set[int] = set()
        for _ in range(min(session_length, total - len(checkins))):
            members = world.members[cluster]
            poi = int(rng.choice(members, p=world.popularity[cluster]))
            if poi in visited_this_session and len(visited_this_session) < len(members):
                # Real check-in sessions rarely revisit a venue within hours;
                # redraw (a few attempts) to keep within-session repeats rare.
                for _ in range(4):
                    poi = int(rng.choice(members, p=world.popularity[cluster]))
                    if poi not in visited_this_session:
                        break
            visited_this_session.add(poi)
            checkins.append(
                CheckIn(
                    user=user,
                    location=poi,
                    timestamp=timestamp,
                    latitude=float(world.latitude[poi]),
                    longitude=float(world.longitude[poi]),
                )
            )
            timestamp += float(
                rng.exponential(config.within_session_gap_minutes * 60.0)
            )
            if rng.random() < config.cluster_jump_prob:
                cluster = int(rng.integers(0, config.num_clusters))
        timestamp += float(rng.exponential(config.session_gap_hours_mean * 3600.0))
        if timestamp > span:
            timestamp = float(rng.uniform(0.0, span))  # wrap: sessions fill the span
    return checkins


def generate_checkins(
    config: SyntheticConfig | None = None, rng: RngLike = None
) -> list[CheckIn]:
    """Generate a full synthetic check-in dataset.

    Args:
        config: generator parameters (defaults are laptop scale).
        rng: seed or generator for reproducibility.

    Returns:
        A flat list of :class:`repro.types.CheckIn` records, grouped by user
        and time-ordered within each user.
    """
    config = config or SyntheticConfig()
    generator = ensure_rng(rng)
    world = _build_world(config, generator)
    checkins: list[CheckIn] = []
    for user in range(config.num_users):
        history = _generate_user(user, config, world, generator)
        history.sort(key=lambda c: c.timestamp)
        checkins.extend(history)
    return checkins


def _bulk_user_block(
    block_users: int,
    config: SyntheticConfig,
    world: _World,
    cdfs: list[np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized generation of one block of users (the "bulk" profile).

    Keeps the corpus *shape* — lognormal per-user activity, a dominant
    home cluster with occasional jumps, Zipf POI popularity within the
    cluster, timestamps spanning the configured months — while trading
    the session micro-structure for throughput: every row is drawn
    independently, so a million users costs array passes, not a Python
    loop per check-in.

    Returns ``(counts, locations, timestamps_sorted_per_user, user_index)``
    where the row arrays are ordered by user then timestamp.
    """
    mu = np.log(config.mean_checkins_per_user) - config.checkins_sigma**2 / 2.0
    counts = np.maximum(
        max(1, config.min_checkins_per_user),  # the store rejects empty users
        np.round(rng.lognormal(mu, config.checkins_sigma, size=block_users)).astype(
            np.int64
        ),
    )
    total = int(counts.sum())
    user_index = np.repeat(np.arange(block_users, dtype=np.int64), counts)

    home = rng.integers(0, config.num_clusters, size=block_users)
    cluster = home[user_index]
    jump = rng.random(total) >= config.preferred_cluster_prob
    cluster[jump] = rng.integers(0, config.num_clusters, size=int(jump.sum()))

    locations = np.empty(total, dtype=np.int64)
    # Iterating clusters in fixed 0..C-1 order keeps the draw sequence a
    # pure function of (block contents, rng state) — deterministic.
    for c in range(config.num_clusters):
        rows = np.flatnonzero(cluster == c)
        if rows.size == 0:
            continue
        picks = np.searchsorted(cdfs[c], rng.random(rows.size), side="right")
        locations[rows] = world.members[c][np.minimum(picks, len(cdfs[c]) - 1)]

    span = config.months * _MONTH_SECONDS
    timestamps = rng.uniform(0.0, span, size=total)
    order = np.lexsort((timestamps, user_index))
    return counts, locations[order], timestamps[order], user_index[order]


def materialize_synthetic_store(
    config: SyntheticConfig | None = None,
    path: "str | Path" = "corpus",
    rng: RngLike = None,
    users_per_shard: int = 4096,
    profile: str = "session",
) -> "ShardedCheckinStore":
    """Generate a synthetic corpus *directly to disk* as a sharded store.

    Streams users into a :class:`~repro.data.store.ShardedStoreWriter`
    one shard at a time, so peak memory is bounded by a single shard —
    this is how 1M+ user corpora are built without ever holding them in
    RAM.

    Args:
        config: generator parameters (defaults are laptop scale).
        path: target store directory (must not already hold a store).
        rng: seed or generator for reproducibility.
        users_per_shard: shard chunking granularity (also the generation
            block size for the bulk profile).
        profile: ``"session"`` replays the exact per-user session
            generator — the resulting store holds *bit-identical content*
            to :func:`generate_checkins` with the same config and seed,
            at the same per-user Python cost. ``"bulk"`` vectorizes
            generation per block of users, keeping the corpus shape
            (activity tail, home-cluster locality, Zipf popularity) while
            dropping session micro-structure; use it at 1M+ user scale.

    Returns:
        The opened :class:`~repro.data.store.ShardedCheckinStore`.
    """
    from repro.data.store import ShardedStoreWriter

    if profile not in ("session", "bulk"):
        raise ConfigError(
            f"profile must be 'session' or 'bulk', got {profile!r}"
        )
    config = config or SyntheticConfig()
    generator = ensure_rng(rng)
    world = _build_world(config, generator)
    writer = ShardedStoreWriter(path, users_per_shard=users_per_shard)

    if profile == "session":
        for user in range(config.num_users):
            history = _generate_user(user, config, world, generator)
            history.sort(key=lambda c: c.timestamp)
            writer.append(
                user,
                np.array([c.location for c in history], dtype=np.int64),
                np.array([c.timestamp for c in history], dtype=np.float64),
                np.array([c.latitude for c in history], dtype=np.float64),
                np.array([c.longitude for c in history], dtype=np.float64),
            )
        return writer.finalize()

    cdfs = [np.cumsum(weights) for weights in world.popularity]
    first_user = 0
    while first_user < config.num_users:
        block_users = min(users_per_shard, config.num_users - first_user)
        counts, locations, timestamps, user_index = _bulk_user_block(
            block_users, config, world, cdfs, generator
        )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        assert np.all(user_index[offsets[:-1]] == np.arange(block_users))
        writer.append_block(
            np.arange(first_user, first_user + block_users),
            offsets,
            locations,
            timestamps,
            world.latitude[locations],
            world.longitude[locations],
        )
        first_user += block_users
    return writer.finalize()
