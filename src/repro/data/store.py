"""Corpus stores: one data-access protocol over in-memory and on-disk data.

The training pipeline historically required the whole check-in corpus as a
:class:`~repro.data.checkins.CheckinDataset` in RAM, which caps runs far
below the "millions of users" target. A :class:`CheckinStore` abstracts
*where the corpus lives* behind the per-user access pattern the trainers
actually have — iterate the user list once (vocabulary scan), then load
individual users' histories on demand (Poisson-sampled rounds):

- :class:`InMemoryCheckinStore` wraps a ``CheckinDataset`` (exact current
  behavior; the default for lists of check-ins and CSV files).
- :class:`ShardedCheckinStore` reads a chunked on-disk layout of packed
  per-shard record arrays with a per-user index, memory-mapping each shard
  lazily so peak RSS stays bounded by the open-shard cache, not the corpus.

:func:`open_corpus` is the single normalization entry point used by
``repro.api.train`` / ``evaluate``, the trainers, and the CLI: it accepts a
store, a dataset, an iterable of check-ins, a CSV path, or a sharded-store
directory, and always hands back a ``CheckinStore``.

On-disk layout (``docs/data.md`` has the full walkthrough)::

    corpus/
      manifest.json        # format marker + corpus-level statistics
      index.npz            # user_ids, shard_of, start, stop (per user)
      shard_00000.npy      # packed structured records of ~users_per_shard
      shard_00001.npy      #   users: (location, timestamp, lat, lon) rows
      ...

Shard payloads are plain ``.npy`` files (not ``.npz`` members) because
``numpy.load(mmap_mode="r")`` only memory-maps standalone arrays; the
small per-user index rides in one ``index.npz``.
"""

from __future__ import annotations

import abc
import json
from collections import OrderedDict
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.data.checkins import CheckinDataset, DatasetStats
from repro.exceptions import DataError
from repro.types import CheckIn, UserHistory

#: ``manifest.json`` format marker; bumped on incompatible layout changes.
STORE_FORMAT = "repro-checkin-store"
STORE_VERSION = 1

#: One check-in record inside a shard: 32 bytes, memory-map friendly.
_RECORD_DTYPE = np.dtype(
    [
        ("location", np.int64),
        ("timestamp", np.float64),
        ("latitude", np.float64),
        ("longitude", np.float64),
    ]
)

_MANIFEST = "manifest.json"
_INDEX = "index.npz"

#: Check-ins per :meth:`InMemoryCheckinStore.iter_arrays` block (a block
#: ends with the user that reaches it).
_BLOCK_ROWS = 4096


def _shard_name(index: int) -> str:
    return f"shard_{index:05d}.npy"


_location = attrgetter("location")
_timestamp = attrgetter("timestamp")


def _flatten(
    histories: list[UserHistory],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One :meth:`CheckinStore.iter_arrays` block of in-memory histories."""
    users = np.fromiter((h.user for h in histories), np.int64, len(histories))
    offsets = np.zeros(len(histories) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in histories], out=offsets[1:])
    checkins = [checkin for h in histories for checkin in h.checkins]
    locations = np.fromiter(map(_location, checkins), np.int64, len(checkins))
    timestamps = np.fromiter(map(_timestamp, checkins), np.float64, len(checkins))
    return users, offsets, locations, timestamps


class CheckinStore(abc.ABC):
    """Read-only per-user access to a check-in corpus, wherever it lives.

    The protocol mirrors the slice of
    :class:`~repro.data.checkins.CheckinDataset` the training and
    evaluation pipelines consume: an ordered user list, per-user history
    lookup, whole-corpus iteration (in user order), and the corpus-level
    statistics the paper reports. Implementations may keep everything in
    RAM or load users lazily from disk; callers must not assume more than
    this interface.
    """

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self.num_users

    def __iter__(self) -> Iterator[UserHistory]:
        for user in self.users:
            yield self.history(user)

    def __contains__(self, user: int) -> bool:
        return user in set(self.users)

    # -- required accessors ---------------------------------------------------

    @property
    @abc.abstractmethod
    def users(self) -> list[int]:
        """User identifiers, in storage order (deterministic)."""

    @property
    @abc.abstractmethod
    def num_users(self) -> int:
        """The paper's N."""

    @abc.abstractmethod
    def history(self, user: int) -> UserHistory:
        """One user's time-sorted check-in history.

        Raises:
            DataError: for an unknown user.
        """

    @abc.abstractmethod
    def iter_arrays(
        self,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Stream the corpus as flat arrays, in user order.

        Yields bounded ``(users, offsets, locations, timestamps)`` blocks:
        user ``users[i]`` owns rows ``offsets[i]:offsets[i + 1]`` of
        ``locations`` / ``timestamps``, in history order. A whole-corpus
        scan (the training vocabulary and pair pass) reads these instead
        of one :class:`~repro.types.CheckIn` per row.
        """

    @property
    @abc.abstractmethod
    def num_checkins(self) -> int:
        """Total check-in record count."""

    @property
    @abc.abstractmethod
    def num_locations(self) -> int:
        """The paper's L = |P|."""

    @abc.abstractmethod
    def stats(self) -> DatasetStats:
        """Corpus summary statistics (may cost a pass over the index)."""

    @abc.abstractmethod
    def describe(self) -> dict[str, object]:
        """Provenance record for artifact metadata (kind, location, size)."""

    # -- conveniences ---------------------------------------------------------

    def to_dataset(self) -> CheckinDataset:
        """Materialize the whole corpus as an in-memory dataset.

        Intended for evaluation-scale corpora; on a million-user sharded
        store this defeats the point of the store — train out-of-core via
        the sharded executor instead.
        """
        return CheckinDataset(
            checkin for history in self for checkin in history.checkins
        )

    def close(self) -> None:
        """Release backing resources (idempotent; no-op for in-memory)."""

    def __enter__(self) -> "CheckinStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InMemoryCheckinStore(CheckinStore):
    """The current behavior: a :class:`CheckinDataset` behind the protocol."""

    def __init__(self, dataset: CheckinDataset) -> None:
        self.dataset = dataset

    @property
    def users(self) -> list[int]:
        return self.dataset.users

    @property
    def num_users(self) -> int:
        return self.dataset.num_users

    def history(self, user: int) -> UserHistory:
        return self.dataset.history(user)

    def iter_arrays(
        self,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Flatten the histories a block of about ``_BLOCK_ROWS`` check-ins
        at a time, so the flat copy never holds the whole corpus."""
        block: list[UserHistory] = []
        rows = 0
        for history in self.dataset:
            block.append(history)
            rows += len(history)
            if rows >= _BLOCK_ROWS:
                yield _flatten(block)
                block, rows = [], 0
        if block:
            yield _flatten(block)

    def __contains__(self, user: int) -> bool:
        return user in self.dataset

    @property
    def num_checkins(self) -> int:
        return self.dataset.num_checkins

    @property
    def num_locations(self) -> int:
        return self.dataset.num_locations

    def location_set(self) -> set[int]:
        return self.dataset.location_set()

    def stats(self) -> DatasetStats:
        return self.dataset.stats()

    def to_dataset(self) -> CheckinDataset:
        return self.dataset

    def describe(self) -> dict[str, object]:
        return {
            "kind": "memory",
            "num_users": self.num_users,
            "num_checkins": self.num_checkins,
        }


class ShardedCheckinStore(CheckinStore):
    """Chunked, memory-mapped on-disk corpus with lazy per-user loading.

    Opening the store reads only the manifest and the per-user index
    (four flat arrays, O(users) small integers). Shard payloads are
    memory-mapped on first touch and kept in a bounded LRU cache of open
    maps, so resident memory tracks the OS page cache of the users
    actually visited — not the corpus size.

    Concurrency: single-writer. A store handle (its LRU of open maps and
    lazy position index) belongs to one thread in one process; sharded
    workers each open their own handle from the path, and a handle that
    is about to cross a fork must drop its maps first — see
    :meth:`release_maps` and the fork-safety contract in
    ``docs/static-analysis.md``. dpsan asserts the single-writer part at
    runtime.

    Args:
        path: the store directory (see module docstring for the layout).
        max_open_shards: LRU capacity of concurrently mapped shard files.
    """

    def __init__(self, path: str | Path, max_open_shards: int = 8) -> None:
        self.path = Path(path)
        manifest_path = self.path / _MANIFEST
        if not manifest_path.is_file():
            raise DataError(f"not a sharded checkin store (no manifest): {self.path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise DataError(f"corrupt store manifest: {manifest_path}") from error
        if manifest.get("format") != STORE_FORMAT:
            raise DataError(
                f"unrecognized store format {manifest.get('format')!r} at {self.path}"
            )
        if int(manifest.get("version", -1)) != STORE_VERSION:
            raise DataError(
                f"unsupported store version {manifest.get('version')!r} "
                f"(reader supports {STORE_VERSION})"
            )
        self.manifest = manifest
        with np.load(self.path / _INDEX) as index:
            self._user_ids = np.ascontiguousarray(index["user_ids"])
            self._shard_of = np.ascontiguousarray(index["shard_of"])
            self._start = np.ascontiguousarray(index["start"])
            self._stop = np.ascontiguousarray(index["stop"])
        # Synthetic corpora write users in ascending-id order, enabling a
        # dict-free binary-search lookup; arbitrary orders fall back to a
        # position dict built on first lookup.
        ids = self._user_ids
        self._sorted_ids = bool(ids.size < 2 or np.all(ids[1:] > ids[:-1]))
        self._positions: dict[int, int] | None = None
        self._open_shards: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._max_open_shards = max(1, int(max_open_shards))
        self._closed = False

    # -- index ----------------------------------------------------------------

    def _position(self, user: int) -> int:
        if self._sorted_ids:
            at = int(np.searchsorted(self._user_ids, user))
            if at < self._user_ids.size and int(self._user_ids[at]) == user:
                return at
            raise DataError(f"unknown user {user}")
        if self._positions is None:
            self._positions = {
                int(uid): pos for pos, uid in enumerate(self._user_ids)
            }
        try:
            return self._positions[user]
        except KeyError:
            raise DataError(f"unknown user {user}") from None

    def _shard(self, shard: int) -> np.ndarray:
        if self._closed:
            raise DataError(f"store is closed: {self.path}")
        cached = self._open_shards.get(shard)
        if cached is not None:
            self._open_shards.move_to_end(shard)
            return cached
        records = np.load(self.path / _shard_name(shard), mmap_mode="r")
        self._open_shards[shard] = records
        if len(self._open_shards) > self._max_open_shards:
            self._open_shards.popitem(last=False)
        return records

    # -- protocol -------------------------------------------------------------

    @property
    def users(self) -> list[int]:
        return [int(uid) for uid in self._user_ids]

    @property
    def num_users(self) -> int:
        return int(self._user_ids.size)

    def __contains__(self, user: int) -> bool:
        try:
            self._position(user)
        except DataError:
            return False
        return True

    def history(self, user: int) -> UserHistory:
        at = self._position(user)
        records = self._shard(int(self._shard_of[at]))
        rows = records[int(self._start[at]) : int(self._stop[at])]
        checkins = [
            CheckIn(
                user=user,
                location=int(row["location"]),
                timestamp=float(row["timestamp"]),
                latitude=float(row["latitude"]),
                longitude=float(row["longitude"]),
            )
            for row in rows
        ]
        return UserHistory(user=user, checkins=checkins)

    def history_arrays(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """One user's ``(locations, timestamps)`` rows, in history order.

        Raises:
            DataError: for an unknown user.
        """
        at = self._position(user)
        records = self._shard(int(self._shard_of[at]))
        rows = records[int(self._start[at]) : int(self._stop[at])]
        return (
            np.ascontiguousarray(rows["location"]),
            np.ascontiguousarray(rows["timestamp"]),
        )

    def iter_arrays(
        self,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One block per run of index-adjacent users sharing a shard."""
        shard_of = self._shard_of
        cuts = np.flatnonzero(shard_of[1:] != shard_of[:-1]) + 1
        bounds = [0, *cuts.tolist(), self.num_users]
        for first, last in zip(bounds[:-1], bounds[1:]):
            records = self._shard(int(shard_of[first]))
            start = self._start[first:last]
            stop = self._stop[first:last]
            lengths = stop - start
            offsets = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            rows = np.arange(int(offsets[-1]), dtype=np.int64)
            rows += np.repeat(start - offsets[:-1], lengths)
            block = records[rows]
            yield (
                self._user_ids[first:last],
                offsets,
                np.ascontiguousarray(block["location"]),
                np.ascontiguousarray(block["timestamp"]),
            )

    @property
    def num_checkins(self) -> int:
        return int(self.manifest["num_checkins"])

    @property
    def num_locations(self) -> int:
        return int(self.manifest["num_locations"])

    def stats(self) -> DatasetStats:
        """Summary statistics from the index + manifest (no data pass)."""
        counts = (self._stop - self._start).astype(np.int64)
        cells = self.num_users * self.num_locations
        distinct = int(self.manifest["distinct_user_location_pairs"])
        return DatasetStats(
            num_users=self.num_users,
            num_locations=self.num_locations,
            num_checkins=self.num_checkins,
            density=distinct / cells if cells else 0.0,
            min_user_checkins=int(counts.min()) if counts.size else 0,
            max_user_checkins=int(counts.max()) if counts.size else 0,
            mean_user_checkins=float(counts.mean()) if counts.size else 0.0,
            duration_seconds=float(self.manifest["duration_seconds"]),
        )

    def describe(self) -> dict[str, object]:
        return {
            "kind": "sharded",
            "path": str(self.path),
            "num_users": self.num_users,
            "num_checkins": self.num_checkins,
            "num_shards": int(self.manifest["num_shards"]),
        }

    def release_maps(self) -> None:
        """Drop every open shard map; the store stays usable.

        The close-before-fork half of the fork-safety contract (DPL008):
        called ahead of any worker-pool start so no mmap handle is
        inherited across ``fork``. Unlike :meth:`close`, the handle
        remains live — the next :meth:`history` access simply remaps the
        shard it needs, yielding byte-identical records.
        """
        self._open_shards.clear()

    def __getstate__(self) -> dict[str, object]:
        # Pickling a numpy memmap serializes the full shard bytes — a
        # silent corpus copy into the pickle stream — and the underlying
        # OS handle must not cross a fork either. Ship the store without
        # its maps; the receiving process remaps lazily on first access.
        state = dict(self.__dict__)
        state["_open_shards"] = OrderedDict()
        return state

    def close(self) -> None:
        self._open_shards.clear()
        self._closed = True


class ShardedStoreWriter:
    """Streaming writer of the sharded on-disk layout.

    Users are appended one at a time (each with a *time-sorted* history)
    and buffered; every ``users_per_shard`` users the buffer is flushed to
    one packed ``.npy`` shard, so writer memory is bounded by a single
    shard regardless of corpus size. :meth:`finalize` (or closing the
    context manager) writes the per-user index and the manifest — a store
    directory without a manifest is unreadable by design, which makes
    interrupted writes detectable.

    Args:
        path: target directory (created; must not already hold a store).
        users_per_shard: chunking granularity of the shard files.
    """

    def __init__(self, path: str | Path, users_per_shard: int = 4096) -> None:
        if users_per_shard < 1:
            raise DataError(f"users_per_shard must be >= 1, got {users_per_shard}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / _MANIFEST).exists():
            raise DataError(f"refusing to overwrite existing store: {self.path}")
        self.users_per_shard = int(users_per_shard)
        self._seen: set[int] = set()
        self._user_ids: list[int] = []
        self._shard_of: list[int] = []
        self._start: list[int] = []
        self._stop: list[int] = []
        self._buffer: list[np.ndarray] = []
        self._buffer_users = 0
        self._buffer_rows = 0
        self._num_shards = 0
        self._num_checkins = 0
        self._locations: set[int] = set()
        self._distinct_pairs = 0
        self._min_time = float("inf")
        self._max_time = float("-inf")
        self._finalized = False

    def append(
        self,
        user: int,
        locations: np.ndarray,
        timestamps: np.ndarray,
        latitude: np.ndarray | None = None,
        longitude: np.ndarray | None = None,
    ) -> None:
        """Append one user's full history (rows must be time-sorted)."""
        locations = np.asarray(locations, dtype=np.int64).reshape(-1)
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        if locations.size != timestamps.size:
            raise DataError(
                f"user {user}: locations ({locations.size}) and timestamps "
                f"({timestamps.size}) length mismatch"
            )
        self.append_block(
            [int(user)], [0, locations.size], locations, timestamps, latitude, longitude
        )

    def append_block(
        self,
        users: np.ndarray,
        offsets: np.ndarray,
        locations: np.ndarray,
        timestamps: np.ndarray,
        latitude: np.ndarray | None = None,
        longitude: np.ndarray | None = None,
    ) -> None:
        """Append many users at once: user ``users[i]`` owns rows
        ``offsets[i]:offsets[i + 1]`` (each time-sorted).

        The bookkeeping runs in array passes over the block, and the
        bytes written do not depend on how users are split into blocks.
        """
        if self._finalized:
            raise DataError("writer already finalized")
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        locations = np.asarray(locations, dtype=np.int64).reshape(-1)
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        lengths = np.diff(offsets)
        if offsets.size != users.size + 1 or offsets[0] != 0:
            raise DataError("offsets must start at 0 and hold one bound per user")
        if locations.size != offsets[-1] or timestamps.size != offsets[-1]:
            raise DataError(
                f"block of {offsets[-1]} rows got {locations.size} locations "
                f"and {timestamps.size} timestamps"
            )
        if lengths.size and lengths.min() < 1:
            empty = int(users[np.argmin(lengths)])
            raise DataError(f"user {empty}: empty history")
        new_ids = set(users.tolist())
        if len(new_ids) != users.size or not self._seen.isdisjoint(new_ids):
            seen = set(self._seen)
            for user in users.tolist():
                if user in seen:
                    raise DataError(f"duplicate user {user} appended to store")
                seen.add(user)
        if not users.size:
            return
        records = np.empty(locations.size, dtype=_RECORD_DTYPE)
        records["location"] = locations
        records["timestamp"] = timestamps
        records["latitude"] = (
            np.asarray(latitude, dtype=np.float64).reshape(-1)
            if latitude is not None
            else np.nan
        )
        records["longitude"] = (
            np.asarray(longitude, dtype=np.float64).reshape(-1)
            if longitude is not None
            else np.nan
        )

        # Distinct (user, location) pairs: one sort of (user, location)
        # keys for the block, in place of a ``np.unique`` per user.
        low = int(locations.min())
        span = int(locations.max()) - low + 1
        if users.size * span < 2**62:
            keys = np.repeat(np.arange(users.size) * span, lengths)
            keys += locations - low
            keys.sort()
            distinct = int(np.count_nonzero(keys[1:] != keys[:-1])) + 1
        else:  # ids too far apart to pack into one int64 key
            distinct = sum(
                np.unique(locations[a:b]).size
                for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())
            )
        self._seen.update(new_ids)
        self._locations.update(np.unique(locations).tolist())
        self._distinct_pairs += distinct
        self._num_checkins += records.size
        first_times = timestamps[offsets[:-1]]
        last_times = timestamps[offsets[1:] - 1]
        self._min_time = min(self._min_time, float(first_times.min()))
        self._max_time = max(self._max_time, float(last_times.max()))

        # Fill shards exactly where per-user appends would cut them.
        first = 0
        while first < users.size:
            room = self.users_per_shard - self._buffer_users
            last = min(users.size, first + room)
            rows = slice(int(offsets[first]), int(offsets[last]))
            self._user_ids.extend(users[first:last].tolist())
            self._shard_of.extend([self._num_shards] * (last - first))
            base = self._buffer_rows - int(offsets[first])
            self._start.extend((offsets[first:last] + base).tolist())
            self._stop.extend((offsets[first + 1 : last + 1] + base).tolist())
            self._buffer.append(records[rows])
            self._buffer_users += last - first
            self._buffer_rows += rows.stop - rows.start
            if self._buffer_users >= self.users_per_shard:
                self._flush_shard()
            first = last

    def append_history(self, history: UserHistory) -> None:
        """Append one :class:`~repro.types.UserHistory`."""
        checkins = history.checkins
        self.append(
            history.user,
            np.array([c.location for c in checkins], dtype=np.int64),
            np.array([c.timestamp for c in checkins], dtype=np.float64),
            np.array([c.latitude for c in checkins], dtype=np.float64),
            np.array([c.longitude for c in checkins], dtype=np.float64),
        )

    def _flush_shard(self) -> None:
        if not self._buffer:
            return
        records = (
            self._buffer[0]
            if len(self._buffer) == 1
            else np.concatenate(self._buffer)
        )
        np.save(self.path / _shard_name(self._num_shards), records)
        self._num_shards += 1
        self._buffer = []
        self._buffer_users = 0
        self._buffer_rows = 0

    def finalize(self) -> ShardedCheckinStore:
        """Flush the tail shard, write index + manifest, open the store."""
        if self._finalized:
            raise DataError("writer already finalized")
        if not self._user_ids:
            raise DataError("store contains no check-ins")
        self._flush_shard()
        self._finalized = True
        np.savez(
            self.path / _INDEX,
            user_ids=np.asarray(self._user_ids, dtype=np.int64),
            shard_of=np.asarray(self._shard_of, dtype=np.int32),
            start=np.asarray(self._start, dtype=np.int64),
            stop=np.asarray(self._stop, dtype=np.int64),
        )
        duration = (
            self._max_time - self._min_time if self._num_checkins else 0.0
        )
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "num_users": len(self._user_ids),
            "num_checkins": self._num_checkins,
            "num_locations": len(self._locations),
            "num_shards": self._num_shards,
            "users_per_shard": self.users_per_shard,
            "distinct_user_location_pairs": self._distinct_pairs,
            "duration_seconds": duration,
        }
        (self.path / _MANIFEST).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        return ShardedCheckinStore(self.path)

    def __enter__(self) -> "ShardedStoreWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None and not self._finalized:
            self.finalize()


def write_sharded_store(
    path: str | Path,
    corpus: "CheckinStore | CheckinDataset | Iterable[CheckIn]",
    users_per_shard: int = 4096,
) -> ShardedCheckinStore:
    """Materialize any corpus source into a sharded on-disk store.

    Streams user by user through a :class:`ShardedStoreWriter`; for an
    already-on-disk input this is a shard-granularity copy, for in-memory
    inputs it is the migration path onto disk.
    """
    source = open_corpus(corpus)
    writer = ShardedStoreWriter(path, users_per_shard=users_per_shard)
    for history in source:
        writer.append_history(history)
    return writer.finalize()


def open_corpus(
    source: "CheckinStore | CheckinDataset | Iterable[CheckIn] | str | Path",
) -> CheckinStore:
    """Normalize any corpus spelling into a :class:`CheckinStore`.

    Accepted inputs, in resolution order:

    - a ``CheckinStore`` — returned as-is;
    - a ``CheckinDataset`` or an iterable of :class:`~repro.types.CheckIn`
      — wrapped in an :class:`InMemoryCheckinStore`;
    - a path to a sharded-store *directory* (holding ``manifest.json``) —
      opened as a :class:`ShardedCheckinStore`;
    - a path to a check-in *CSV file* — loaded fully into memory.

    This is the single entry point behind ``repro.api.train`` /
    ``evaluate``, the trainers, and the CLI's ``--data`` handling.

    Raises:
        DataError: for a missing path, a directory without a manifest, or
            an unsupported source type.
    """
    if isinstance(source, CheckinStore):
        return source
    if isinstance(source, CheckinDataset):
        return InMemoryCheckinStore(source)
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            return ShardedCheckinStore(path)  # raises DataError sans manifest
        if path.is_file():
            from repro.data.io import load_checkins_csv

            return InMemoryCheckinStore(CheckinDataset(load_checkins_csv(path)))
        raise DataError(f"corpus not found: {path}")
    if isinstance(source, Mapping):
        raise DataError(
            f"cannot open a corpus from {type(source).__name__}; pass a "
            "CheckinStore, CheckinDataset, iterable of CheckIn, or a path"
        )
    if isinstance(source, Iterable):
        return InMemoryCheckinStore(CheckinDataset(source))
    raise DataError(
        f"cannot open a corpus from {type(source).__name__}; pass a "
        "CheckinStore, CheckinDataset, iterable of CheckIn, or a path"
    )
