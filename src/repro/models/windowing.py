"""Symmetric context windows and training-batch generation.

"Given a target location check-in c, a symmetric window of ``win`` context
locations to the left and ``win`` to the right is created to output
multiple pairs of target and context locations as training samples"
(Section 3.2). Algorithm 1's ``generateBatches()`` (line 17) then packs a
batch-size number of pairs per batch; :class:`BatchIterator` implements it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigError
from repro.rng import RngLike, ensure_rng


def pairs_from_sequence(
    sequence: Sequence[int], window: int
) -> list[tuple[int, int]]:
    """All (target, context) pairs from one trajectory.

    For each position ``i`` the context positions are
    ``[i - window, i + window]`` excluding ``i`` itself, truncated at the
    sequence boundaries.

    Args:
        sequence: location tokens in visit order.
        window: the paper's ``win`` (>= 1); total window size ``2*win + 1``.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    pairs: list[tuple[int, int]] = []
    length = len(sequence)
    for i, target in enumerate(sequence):
        low = max(0, i - window)
        high = min(length, i + window + 1)
        for j in range(low, high):
            if j != i:
                pairs.append((target, sequence[j]))
    return pairs


def pairs_from_sequences(
    sequences: Iterable[Sequence[int]], window: int
) -> np.ndarray:
    """Stack the window pairs of many trajectories into an ``(n, 2)`` array.

    Row for row the pairs :func:`pairs_from_sequence` lists for each
    trajectory in turn (see :func:`window_pairs`). Returns an empty
    ``(0, 2)`` int array when no pairs exist (all sequences shorter
    than 2).

    Raises:
        ConfigError: when ``window < 1``, even for no sequences.
    """
    lengths: list[int] = []
    tokens: list[int] = []
    for sequence in sequences:
        lengths.append(len(sequence))
        tokens.extend(sequence)
    return window_pairs(
        np.asarray(tokens, dtype=np.int64), np.asarray(lengths, dtype=np.int64), window
    )


def window_pairs(tokens: np.ndarray, lengths: np.ndarray, window: int) -> np.ndarray:
    """The window pairs of trajectories stored back to back, in array passes.

    Trajectory ``i`` is the next ``lengths[i]`` entries of ``tokens``.
    Row for row the pairs :func:`pairs_from_sequence` lists for each
    trajectory in turn, without a Python loop per pair: the one window
    expansion behind :func:`pairs_from_sequences` and the training-data
    scan of :mod:`repro.core._pairs`.

    Raises:
        ConfigError: when ``window < 1``.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    counts = np.asarray(lengths, dtype=np.int64)
    if not window_pair_counts(counts, window).any():
        return np.empty((0, 2), dtype=np.int64)
    flat = np.asarray(tokens, dtype=np.int64)
    # Per position: the clipped window [low, high) of its own trajectory.
    ends = np.cumsum(counts)
    end = np.repeat(ends, counts)
    start = end - np.repeat(counts, counts)
    position = np.arange(flat.size, dtype=np.int64)
    low = np.maximum(start, position - window)
    high = np.minimum(end, position + window + 1)
    per_target = high - low - 1
    # The k-th context of a target is low + k, stepping over the target.
    first = np.cumsum(per_target) - per_target
    context = np.arange(int(per_target.sum()), dtype=np.int64)
    context += np.repeat(low - first, per_target)
    context += context >= np.repeat(position, per_target)
    pairs = np.empty((context.size, 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(flat, per_target)
    pairs[:, 1] = flat[context]
    return pairs


def window_pair_counts(lengths: np.ndarray, window: int) -> np.ndarray:
    """Pair counts of trajectories of the given lengths, without the pairs.

    A trajectory of length ``L`` has ``L - d`` position pairs at distance
    ``d``, each listed in both directions, for every ``d`` up to
    ``min(window, L - 1)``; this sums that in closed form.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    reach = np.clip(lengths - 1, 0, window)
    return reach * (2 * lengths - reach - 1)


class BatchIterator:
    """Shuffled mini-batches of (target, context) pairs: ``generateBatches()``.

    Args:
        pairs: ``(n, 2)`` int array of (target, context) pairs.
        batch_size: the paper's ``b``; the final short batch is kept.
        rng: shuffle randomness; pass ``None`` to keep the input order.
    """

    def __init__(
        self,
        pairs: np.ndarray,
        batch_size: int,
        rng: RngLike = None,
        shuffle: bool = True,
    ) -> None:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ConfigError(f"pairs must have shape (n, 2), got {pairs.shape}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self._pairs = pairs
        self.batch_size = int(batch_size)
        self._shuffle = shuffle
        self._rng = ensure_rng(rng)

    def __len__(self) -> int:
        """Number of batches per pass (ceil division)."""
        n = self._pairs.shape[0]
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(targets, contexts)`` index arrays per batch."""
        n = self._pairs.shape[0]
        if n == 0:
            return
        order = np.arange(n)
        if self._shuffle:
            self._rng.shuffle(order)
        # One gather up front; every batch is then a contiguous slice, so
        # iterating costs two views per batch instead of a fancy-index copy.
        shuffled = self._pairs[order]
        for start in range(0, n, self.batch_size):
            chunk = shuffled[start : start + self.batch_size]
            yield chunk[:, 0], chunk[:, 1]
