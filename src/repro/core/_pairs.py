"""Shared training-data preparation: vocabulary + per-user window pairs.

Both the private and non-private trainers tokenize the training users'
check-in sequences and expand them into (target, context) window pairs.
"Given the set of check-ins of a user, we treat the consecutively visited
locations as a trajectory that reflects her visit patterns" (Section 3.2);
by default sequences are sessionized with the paper's 6-hour rule so a
window never spans a multi-day gap, with the full-history alternative
available.

:func:`build_pair_source` builds both in **one array pass** over any
store's :meth:`~repro.data.store.CheckinStore.iter_arrays` blocks:
tokens in first-appearance order, sessions split by
:func:`~repro.data.splitting.session_starts`, windows expanded by
:func:`~repro.models.windowing.window_pairs`. The result is a per-user
pair *source* in one of two shapes:

- :class:`InMemoryPairSource` — an in-memory corpus keeps every user's
  pair array, expanded block by block during the scan.
- :class:`StorePairSource` — a disk-backed corpus keeps only per-user
  pair counts from the scan; a user's pairs are expanded on demand from
  that user's slice of the store's arrays, so the corpus never has all
  pairs resident at once and worker processes can rebuild the source
  locally from a small picklable spec instead of receiving the arrays
  over a pipe.

Both shapes give bit-identical vocabularies and per-user pair arrays
for the same corpus — the cross-executor determinism contract depends on
it.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from repro.data.splitting import SIX_HOURS_SECONDS, session_starts
from repro.exceptions import ConfigError, DataError
from repro.models.vocabulary import LocationVocabulary
from repro.models.windowing import window_pair_counts, window_pairs

if TYPE_CHECKING:
    from repro.data.store import CheckinStore, ShardedCheckinStore


def _session_lengths(
    offsets: np.ndarray,
    timestamps: np.ndarray,
    sessionize_training: bool,
    max_session_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory lengths of a flat block, and the user index owning each.

    User ``i`` owns rows ``offsets[i]:offsets[i + 1]``; a trajectory is a
    whole history, or one of its 6-hour sessions.
    """
    if sessionize_training:
        starts = session_starts(timestamps, offsets, max_session_seconds)
    else:
        starts = offsets[:-1][np.diff(offsets) > 0]
    lengths = np.diff(np.append(starts, offsets[-1]))
    owner = np.searchsorted(offsets, starts, side="right") - 1
    return lengths, owner


class PairSource(abc.ABC):
    """Per-user access to (target, context) pair arrays.

    The pipeline's grouping and local-training stages only ever need the
    sampled users' pairs; a ``PairSource`` lets them pull exactly those,
    whether the backing corpus is a dict in RAM or a sharded store on
    disk. Sources are read-only and must be deterministic: ``pairs(user)``
    always returns the same array contents for the same source.
    """

    @property
    @abc.abstractmethod
    def users(self) -> list[int]:
        """Training users, in corpus order."""

    @abc.abstractmethod
    def pairs(self, user: int) -> np.ndarray:
        """The ``(n_u, 2)`` int64 pair array of ``user``."""

    @abc.abstractmethod
    def pair_count(self, user: int) -> int:
        """``len(pairs(user))`` without materializing the array."""

    def spec(self) -> "PairSourceSpec | None":
        """A picklable recipe rebuilding this source in another process.

        Returns ``None`` when the source cannot be shipped; the process
        pool then receives each bucket's materialized pairs instead.
        """
        return None

    def release_resources(self) -> None:
        """Drop process-local handles (mmaps, caches) ahead of a fork.

        The close-before-fork half of the fork-safety contract (DPL008):
        the engine calls this right before an executor may start worker
        processes, so no memory-mapped shard handle is inherited across
        ``fork``. The source stays usable — dropped state is rebuilt
        lazily on the next access. In-memory sources hold nothing to
        release; the default is a no-op.
        """


@dataclass(frozen=True, slots=True)
class InMemorySourceSpec:
    """Ships the full pair dict to workers (in-memory corpora are small)."""

    user_pairs: dict[int, np.ndarray]

    def build(self) -> "PairSource":
        return InMemoryPairSource(self.user_pairs)


@dataclass(frozen=True, slots=True)
class StoreSourceSpec:
    """Rebuilds a disk-backed source worker-side: path + tokenization.

    Only the store path, the token-ordered location list, and the window
    parameters travel over the pipe; the worker reopens the memory-mapped
    store locally and computes pairs on demand.
    """

    path: str
    locations: tuple[Hashable, ...]
    window: int
    sessionize_training: bool
    max_session_seconds: float

    def build(self) -> "PairSource":
        from repro.data.store import ShardedCheckinStore

        store = ShardedCheckinStore(self.path)
        vocabulary = LocationVocabulary.from_locations(list(self.locations))
        return StorePairSource(
            store,
            vocabulary,
            window=self.window,
            sessionize_training=self.sessionize_training,
            max_session_seconds=self.max_session_seconds,
        )


PairSourceSpec = InMemorySourceSpec | StoreSourceSpec


class InMemoryPairSource(PairSource):
    """The historical shape: every user's pairs in one dict."""

    def __init__(self, user_pairs: Mapping[int, np.ndarray]) -> None:
        self.user_pairs = dict(user_pairs)

    @property
    def users(self) -> list[int]:
        return list(self.user_pairs)

    def pairs(self, user: int) -> np.ndarray:
        try:
            return self.user_pairs[user]
        except KeyError:
            raise DataError(f"unknown training user {user}") from None

    def pair_count(self, user: int) -> int:
        return int(self.pairs(user).shape[0])

    def spec(self) -> "PairSourceSpec | None":
        return InMemorySourceSpec(user_pairs=self.user_pairs)


class StorePairSource(PairSource):
    """Lazy per-user pairs over a :class:`~repro.data.store.ShardedCheckinStore`.

    A user's pair array is expanded on first access from that user's
    memory-mapped rows (:meth:`~repro.data.store.ShardedCheckinStore.history_arrays`),
    by the same session split and window expansion as the scan, and kept
    in a small LRU (Poisson sampling revisits users across rounds), so
    resident pair memory is bounded by the cache — not the corpus.

    Concurrency: single-writer. An instance is owned by the coordinating
    trainer thread; worker processes never share it — they rebuild their
    own source from :meth:`spec` (enforced at runtime by dpsan).

    Args:
        store: the backing on-disk store.
        vocabulary: the full training vocabulary (already built by
            :func:`build_pair_source`'s streaming scan).
        window: symmetric context radius.
        sessionize_training: the 6-hour session split toggle.
        max_session_seconds: session duration bound.
        pair_counts: optional precomputed per-user pair counts (from the
            vocabulary scan); computed on demand when absent.
        max_cached_users: LRU capacity of materialized pair arrays.
    """

    def __init__(
        self,
        store: "ShardedCheckinStore",
        vocabulary: LocationVocabulary,
        window: int,
        sessionize_training: bool = True,
        max_session_seconds: float = SIX_HOURS_SECONDS,
        pair_counts: dict[int, int] | None = None,
        max_cached_users: int = 256,
    ) -> None:
        self.store = store
        self.vocabulary = vocabulary
        self.window = window
        self.sessionize_training = sessionize_training
        self.max_session_seconds = max_session_seconds
        self._pair_counts = pair_counts
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._max_cached_users = max(1, int(max_cached_users))

    @property
    def users(self) -> list[int]:
        return self.store.users

    def pairs(self, user: int) -> np.ndarray:
        cached = self._cache.get(user)
        if cached is not None:
            self._cache.move_to_end(user)
            return cached
        locations, timestamps = self.store.history_arrays(user)
        tokens = np.asarray(self.vocabulary.encode(locations.tolist()), dtype=np.int64)
        lengths, _ = _session_lengths(
            np.array([0, tokens.size]),
            timestamps,
            self.sessionize_training,
            self.max_session_seconds,
        )
        pairs = window_pairs(tokens, lengths, self.window)
        self._cache[user] = pairs
        if len(self._cache) > self._max_cached_users:
            self._cache.popitem(last=False)
        return pairs

    def pair_count(self, user: int) -> int:
        if self._pair_counts is not None:
            try:
                return self._pair_counts[user]
            except KeyError:
                raise DataError(f"unknown training user {user}") from None
        return int(self.pairs(user).shape[0])

    def spec(self) -> "PairSourceSpec | None":
        return StoreSourceSpec(
            path=str(self.store.path),
            locations=tuple(self.vocabulary.locations()),
            window=self.window,
            sessionize_training=self.sessionize_training,
            max_session_seconds=self.max_session_seconds,
        )

    def release_resources(self) -> None:
        """Drop the pair cache and the store's mmap handles pre-fork.

        Both rebuild lazily: the next :meth:`pairs` call recomputes (or
        the store remaps) exactly the same bytes, so releasing never
        changes results — only what a forked child could inherit.
        """
        self._cache.clear()
        self.store.release_maps()


def build_pair_source(
    store: "CheckinStore",
    window: int,
    sessionize_training: bool = True,
    max_session_seconds: float = SIX_HOURS_SECONDS,
) -> tuple[LocationVocabulary, PairSource]:
    """Build the vocabulary and a :class:`PairSource` over any corpus store.

    One streaming pass over the store's
    :meth:`~repro.data.store.CheckinStore.iter_arrays` blocks, in store
    user order, so the scan's working memory is one block. Tokens are
    assigned in first-appearance order, exactly as adding every user's
    check-ins in turn to a :class:`LocationVocabulary` would, and each
    block costs a few numpy passes (plus one float comparison per row for
    the session split) instead of objects per check-in.

    An in-memory store's pairs are expanded per block right away
    (:class:`InMemoryPairSource`); a sharded store's are only counted
    here and expanded per user on demand (:class:`StorePairSource`).
    Both give the same arrays.

    Raises:
        ConfigError: when ``window < 1``.
        DataError: when no user yields a single training pair.
    """
    from repro.data.store import ShardedCheckinStore

    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    on_disk = isinstance(store, ShardedCheckinStore)
    locations: list[int] = []  # token -> location id
    known = np.empty(0, dtype=np.int64)  # ascending ids seen so far
    known_tokens = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    pair_counts: dict[int, int] = {}
    user_pairs: dict[int, np.ndarray] = {}
    total = 0
    for users, offsets, block_locations, timestamps in store.iter_arrays():
        at = np.searchsorted(known, block_locations)
        unseen = at == known.size
        unseen[~unseen] = known[at[~unseen]] != block_locations[~unseen]
        if unseen.any():
            # New ids get the next tokens in order of first appearance.
            ids, first_seen = np.unique(block_locations[unseen], return_index=True)
            fresh_ids = ids[np.argsort(first_seen, kind="stable")]
            base = len(locations)
            locations.extend(fresh_ids.tolist())
            merged = np.concatenate((known, fresh_ids))
            merged_tokens = np.concatenate(
                (known_tokens, np.arange(base, len(locations), dtype=np.int64))
            )
            order = np.argsort(merged, kind="stable")
            known, known_tokens = merged[order], merged_tokens[order]
            counts = np.concatenate(
                (counts, np.zeros(fresh_ids.size, dtype=np.int64))
            )
            at = np.searchsorted(known, block_locations)
        tokens = known_tokens[at]
        counts += np.bincount(tokens, minlength=counts.size)

        lengths, owner = _session_lengths(
            offsets, timestamps, sessionize_training, max_session_seconds
        )
        per_user = np.zeros(users.size, dtype=np.int64)
        np.add.at(per_user, owner, window_pair_counts(lengths, window))
        total += int(per_user.sum())
        if on_disk:
            pair_counts.update(zip(users.tolist(), per_user.tolist()))
        else:
            pairs = window_pairs(tokens, lengths, window)
            split = np.split(pairs, np.cumsum(per_user)[:-1])
            user_pairs.update(zip(users.tolist(), split))
    if total == 0:
        raise DataError(
            "no training pairs produced; sequences are too short for the window"
        )
    vocabulary = LocationVocabulary.from_locations(locations, counts.tolist())
    if not isinstance(store, ShardedCheckinStore):
        return vocabulary, InMemoryPairSource(user_pairs)
    return vocabulary, StorePairSource(
        store,
        vocabulary,
        window=window,
        sessionize_training=sessionize_training,
        max_session_seconds=max_session_seconds,
        pair_counts=pair_counts,
    )
