"""Shared training-data preparation: vocabulary + per-user window pairs.

Both the private and non-private trainers tokenize the training users'
check-in sequences and expand them into (target, context) window pairs.
"Given the set of check-ins of a user, we treat the consecutively visited
locations as a trajectory that reflects her visit patterns" (Section 3.2);
by default sequences are sessionized with the paper's 6-hour rule so a
window never spans a multi-day gap, with the full-history alternative
available.

Two access shapes are provided on top of the same pair math:

- :func:`build_training_data` — the historical eager path: every user's
  pair array materialized into one dict (what in-memory training uses).
- :class:`PairSource` / :func:`build_pair_source` — a per-user pair
  *source*: the vocabulary is still built in one deterministic streaming
  scan, but pair arrays are produced lazily per user, so a disk-backed
  corpus never has all pairs resident at once and worker processes can
  rebuild the source locally from a small picklable spec instead of
  receiving the arrays over a pipe.

Both paths produce bit-identical vocabularies and per-user pair arrays
for the same corpus — the cross-executor determinism contract depends on
it.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from repro.data.checkins import CheckinDataset
from repro.data.splitting import SIX_HOURS_SECONDS, session_starts, sessionize
from repro.exceptions import ConfigError, DataError
from repro.models.vocabulary import LocationVocabulary
from repro.models.windowing import pairs_from_sequences, window_pair_counts
from repro.types import UserHistory

if TYPE_CHECKING:
    from repro.data.store import CheckinStore, ShardedCheckinStore

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def build_training_data(
    dataset: CheckinDataset,
    window: int,
    sessionize_training: bool = True,
    max_session_seconds: float = SIX_HOURS_SECONDS,
) -> tuple[LocationVocabulary, dict[int, np.ndarray]]:
    """Tokenize training sequences and expand per-user window pairs.

    Args:
        dataset: the training users' check-ins.
        window: the symmetric context radius ``win``.
        sessionize_training: split each history into 6-hour sessions before
            window expansion (recommended; prevents cross-session windows).
        max_session_seconds: session duration bound.

    Returns:
        ``(vocabulary, user_pairs)`` where ``user_pairs[user]`` is an
        ``(n_u, 2)`` int array of that user's (target, context) token pairs.

    Raises:
        DataError: when no user yields a single training pair.
    """
    per_user_sequences: dict[int, list[list[int]]] = {}
    for history in dataset:
        if sessionize_training:
            sequences = [
                list(trajectory.locations)
                for trajectory in sessionize(history, max_session_seconds)
            ]
        else:
            sequences = [history.locations()]
        per_user_sequences[history.user] = sequences

    vocabulary = LocationVocabulary.from_sequences(
        sequence
        for sequences in per_user_sequences.values()
        for sequence in sequences
    )

    user_pairs: dict[int, np.ndarray] = {}
    total = 0
    for user, sequences in per_user_sequences.items():
        encoded = [vocabulary.encode(sequence) for sequence in sequences]
        pairs = pairs_from_sequences(encoded, window)
        user_pairs[user] = pairs if pairs.shape[0] else _EMPTY_PAIRS
        total += pairs.shape[0]
    if total == 0:
        raise DataError(
            "no training pairs produced; sequences are too short for the window"
        )
    return vocabulary, user_pairs


def _history_pairs(
    history: UserHistory,
    vocabulary: LocationVocabulary,
    window: int,
    sessionize_training: bool,
    max_session_seconds: float,
) -> np.ndarray:
    """One user's (target, context) pairs — the math both paths share."""
    if sessionize_training:
        sequences = [
            list(trajectory.locations)
            for trajectory in sessionize(history, max_session_seconds)
        ]
    else:
        sequences = [history.locations()]
    encoded = [vocabulary.encode(sequence) for sequence in sequences]
    pairs = pairs_from_sequences(encoded, window)
    return pairs if pairs.shape[0] else _EMPTY_PAIRS


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
    """Lazy per-user pairs over a :class:`~repro.data.store.CheckinStore`.

    Pair arrays are computed from the store's memory-mapped history on
    first access and kept in a small LRU (Poisson sampling revisits users
    across rounds), so resident pair memory is bounded by the cache — not
    the corpus.

    Concurrency: single-writer. An instance is owned by the coordinating
    trainer thread; worker processes never share it — they rebuild their
    own source from :meth:`spec` (enforced at runtime by dpsan).

    Args:
        store: the backing corpus store.
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
        store: "CheckinStore",
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
        pairs = _history_pairs(
            self.store.history(user),
            self.vocabulary,
            self.window,
            self.sessionize_training,
            self.max_session_seconds,
        )
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
        from repro.data.store import ShardedCheckinStore

        if not isinstance(self.store, ShardedCheckinStore):
            return None
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
        release_maps = getattr(self.store, "release_maps", None)
        if release_maps is not None:
            release_maps()


def _scan_store(
    store: "ShardedCheckinStore",
    window: int,
    sessionize_training: bool,
    max_session_seconds: float,
) -> tuple[LocationVocabulary, dict[int, int]]:
    """The vocabulary and per-user pair counts of a store, in array passes.

    Equal to adding every user's check-ins to a vocabulary one by one and
    counting the pairs of their (sessionized) trajectories, but each
    block costs a few numpy passes (plus one float comparison per row for
    the session split) instead of objects per check-in.

    Raises:
        DataError: when no user yields a single training pair.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    locations: list[int] = []  # token -> location id
    known = np.empty(0, dtype=np.int64)  # ascending ids seen so far
    known_tokens = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    pair_counts: dict[int, int] = {}
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
        counts += np.bincount(known_tokens[at], minlength=counts.size)

        if sessionize_training:
            starts = session_starts(timestamps, offsets, max_session_seconds)
        else:
            starts = offsets[:-1][np.diff(offsets) > 0]
        lengths = np.diff(np.append(starts, block_locations.size))
        owner = np.searchsorted(offsets, starts, side="right") - 1
        per_user = np.zeros(users.size, dtype=np.int64)
        np.add.at(per_user, owner, window_pair_counts(lengths, window))
        pair_counts.update(zip(users.tolist(), per_user.tolist()))
        total += int(per_user.sum())
    if total == 0:
        raise DataError(
            "no training pairs produced; sequences are too short for the window"
        )
    return LocationVocabulary.from_locations(locations, counts.tolist()), pair_counts


def build_pair_source(
    store: "CheckinStore",
    window: int,
    sessionize_training: bool = True,
    max_session_seconds: float = SIX_HOURS_SECONDS,
) -> tuple[LocationVocabulary, PairSource]:
    """Build the vocabulary and a :class:`PairSource` over any corpus store.

    For an in-memory store this delegates to :func:`build_training_data`
    (bit-identical to the historical path). For a disk-backed store it
    makes **one streaming pass** over
    :meth:`~repro.data.store.ShardedCheckinStore.iter_arrays` blocks in
    store user order (see :func:`_scan_store`), so the scan's
    peak memory is one block. Tokens are assigned in first-appearance
    order, exactly as adding every user's check-ins in turn would, so
    per-user pair arrays recomputed later are bit-identical to the eager
    path.

    Raises:
        DataError: when no user yields a single training pair.
    """
    from repro.data.store import InMemoryCheckinStore

    if isinstance(store, InMemoryCheckinStore):
        vocabulary, user_pairs = build_training_data(
            store.to_dataset(), window, sessionize_training, max_session_seconds
        )
        return vocabulary, InMemoryPairSource(user_pairs)

    vocabulary, pair_counts = _scan_store(
        store, window, sessionize_training, max_session_seconds
    )
    return vocabulary, StorePairSource(
        store,
        vocabulary,
        window=window,
        sessionize_training=sessionize_training,
        max_session_seconds=max_session_seconds,
        pair_counts=pair_counts,
    )
