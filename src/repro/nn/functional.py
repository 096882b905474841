"""Numerically stable tensor primitives used across the library.

This module is the **backend-neutral** part of :mod:`repro.nn`: every
function here defines reference semantics in float64. Backend-specific
variants (float32 accumulation, lookup tables, compiled kernels) live in
:mod:`repro.nn.backends` and are regression-tested against these
definitions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigError


def logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Stable ``log(sum(exp(x)))`` along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    maximum = x.max(axis=axis, keepdims=True)
    maximum = np.where(np.isfinite(maximum), maximum, 0.0)
    shifted = x - maximum
    np.exp(shifted, out=shifted)
    result = shifted.sum(axis=axis, keepdims=True)
    np.log(result, out=result)
    result += maximum
    return result if keepdims else np.squeeze(result, axis=axis)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    return x - logsumexp(x, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic sigmoid, exact in both tails."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def one_hot(indices: np.ndarray, depth: int) -> np.ndarray:
    """One-hot encode integer ``indices`` into vectors of length ``depth``.

    This is the encoding step of Figure 2 in the paper (locations -> binary
    vectors of size L); the fast paths elsewhere index rows directly, which
    is mathematically identical to multiplying by a one-hot vector.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices < 0) or np.any(indices >= depth):
        raise ValueError("one_hot indices out of range")
    encoded = np.zeros(indices.shape + (depth,), dtype=np.float64)
    np.put_along_axis(encoded, indices[..., None], 1.0, axis=-1)
    return encoded


def stable_argsort(keys: np.ndarray, key_bound: int) -> np.ndarray:
    """Stable argsort of non-negative int64 ``keys`` (< ``key_bound``).

    Each position is packed into the low bits of its key
    (``key << bits | i``), which makes every key unique: sorting the
    packed values and masking the position back out gives exactly the
    stable order, several times faster than numpy's stable kind on int64
    and about twice as fast as an argsort of the packed keys. Falls back
    to ``kind="stable"`` when the packed key would not fit in int64.
    """
    size = int(keys.size)
    if size == 0:
        return np.empty(0, dtype=np.int64)
    bits = max(1, (size - 1).bit_length())
    if key_bound > (2**62) >> bits:
        return np.argsort(keys, kind="stable")
    packed = np.left_shift(keys, bits, dtype=np.int64)
    packed |= np.arange(size, dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for a non-empty 1-D int array, via one explicit sort."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class RowScatter:
    """A compiled ``matrix[rows] += values`` for one fixed ``rows``.

    ``values[order]`` groups the updates by destination row, keeping their
    original order within a group; ``np.add.reduceat`` at ``starts`` sums
    each group left to right, and each sum is added once to its row of
    ``destinations``. Build instances with :func:`plan_row_scatters`.
    """

    __slots__ = ("order", "starts", "destinations")

    def __init__(
        self, order: np.ndarray, starts: np.ndarray, destinations: np.ndarray
    ) -> None:
        self.order = order
        self.starts = starts
        self.destinations = destinations

    def add(self, matrix: np.ndarray, values: np.ndarray) -> None:
        """In-place ``matrix[rows] += values``; ``values`` align with ``rows``."""
        matrix[self.destinations] += np.add.reduceat(
            values[self.order], self.starts, axis=0
        )


def plan_row_scatters(segments: Sequence[np.ndarray]) -> list[RowScatter]:
    """One :class:`RowScatter` per non-empty 1-D int row array, in one
    vectorized pass.

    Every segment's rows are offset into a disjoint key range, one stable
    sort orders them all, and each segment's order, group starts and
    destination rows are read back out by slice.
    """
    sizes = np.array([segment.size for segment in segments], dtype=np.int64)
    rows = np.concatenate(segments).astype(np.int64, copy=False)
    low = int(rows.min())
    span = int(rows.max()) - low + 1
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    segment_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    keys = segment_ids * span + (rows - low)
    order = stable_argsort(keys, sizes.size * span)
    sorted_keys = keys[order]
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    leaders = order[starts]
    start_segments = segment_ids[leaders]
    destinations = rows[leaders]
    order -= np.repeat(offsets[:-1], sizes)
    starts -= offsets[start_segments]
    bounds = np.zeros_like(offsets)
    np.cumsum(np.bincount(start_segments, minlength=sizes.size), out=bounds[1:])
    offsets = offsets.tolist()
    bounds = bounds.tolist()
    return [
        RowScatter(
            order[offsets[i] : offsets[i + 1]],
            starts[bounds[i] : bounds[i + 1]],
            destinations[bounds[i] : bounds[i + 1]],
        )
        for i in range(sizes.size)
    ]


class SigmoidTable:
    """Precomputed logistic-sigmoid lookup table (the word2vec-at-scale trick).

    The classic word2vec/deepwalk implementations replace per-element
    ``exp`` calls in the inner training loop with a table lookup:
    ``sigmoid(x)`` is precomputed on a uniform grid over ``[-bound, bound]``
    and queried by index. Outside the clamp range the sigmoid saturates to
    within ``sigmoid(-bound) < 4e-4`` (for the default bound of 8) of its
    asymptote, so the approximation error is bounded by the grid pitch
    ``2 * bound / size`` times the sigmoid's maximum slope (1/4) plus the
    tail saturation — well below float32 training noise for the defaults.

    The fast kernel backend uses this table for the sigmoid-based losses;
    the reference backend keeps the exact :func:`sigmoid`.

    Args:
        bound: clamp range; inputs are clipped to ``[-bound, bound]``.
        size: number of grid points.
        dtype: dtype of the stored table (and of lookups).
    """

    def __init__(
        self, bound: float = 8.0, size: int = 4096, dtype: type = np.float32
    ) -> None:
        if bound <= 0.0:
            raise ConfigError(f"bound must be positive, got {bound}")
        if size < 2:
            raise ConfigError(f"size must be >= 2, got {size}")
        self.bound = float(bound)
        self.size = int(size)
        grid = np.linspace(-self.bound, self.bound, self.size, dtype=np.float64)
        self.table = sigmoid(grid).astype(dtype)
        self._scale = (self.size - 1) / (2.0 * self.bound)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Approximate ``sigmoid(x)`` elementwise via table lookup."""
        x = np.asarray(x)
        index = (x + self.bound) * self._scale
        np.clip(index, 0, self.size - 1, out=index)
        return self.table[index.astype(np.intp)]


def normalize_rows(matrix: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Scale each row of ``matrix`` to unit l2 norm.

    The paper normalizes embedding vectors to unit length so cosine
    similarity and dot product coincide (Section 3.2).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, epsilon)
