"""Next-location recommendation from trained embeddings (Section 3.3).

Given a user's recent check-ins ``zeta``, the recommender computes the
profile vector ``F(zeta)`` (mean of the normalized embeddings of the recent
locations), scores every location in the universe by cosine similarity, and
returns the top-K as candidates. Model utilization is local — "neither the
input, nor the output to the model are shared, so there is no privacy
concern" once the model itself was trained privately.

Two scoring kernels back both the single-query and the batched entry
points:

- ``mode="exact"`` (default) — float64, built from ``np.add.reduceat``
  segment sums and a non-BLAS ``einsum`` contraction. Each query's scores
  are computed by an arithmetic sequence that does not depend on the batch
  it rides in, so ``score_batch(queries)[i]`` is bit-for-bit identical to
  ``score_all(queries[i])``. The leave-one-out evaluator relies on this.
- ``mode="fast"`` — float32 BLAS matmul against a cached float32 copy of
  the embedding matrix. Scores may differ from the exact kernel in the
  last ulps (and ties may order differently); this is the serving-layer
  default, where throughput matters and scores are only a ranking signal.
  It is not batch-independent: OpenBLAS picks its float32 kernel by
  matrix shape, so a query's scores can differ in the last bits (up to
  about 1e-7) with the size of the batch it rides in, and near-ties can
  swap. Against a 40-query batch, with OpenBLAS 0.3.31 on x86-64, every
  batch of 1 to 16 queries differed on a 50 x 32 model, batches of up to
  5-6 on 200 x 32, up to 2 on 600 x 50, and none on a 5,069 x 50 model.
  Use the exact kernel where batch independence matters.

Queries with no location known to the model fall back to an optional
popularity prior (``fallback_scores``) instead of producing NaN scores;
without a configured fallback they raise :class:`ConfigError`, exactly as
the single-query path always has.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import ConfigError, NotFittedError
from repro.models.embeddings import EmbeddingMatrix, top_k_indices

_SCORING_MODES = ("exact", "fast")


class NextLocationRecommender:
    """Ranks candidate next locations for a user's recent check-in set.

    Args:
        embeddings: trained (normalized) location embeddings.
        vocabulary: optional POI-id <-> token mapping; when provided, the
            recommender accepts and returns raw POI ids, and silently drops
            input locations unknown to the model.
        exclude_input: when True, locations present in the input ``zeta``
            are removed from the recommendation list.
        fallback_scores: optional ``(num_locations,)`` score vector (e.g. a
            popularity prior from
            :func:`repro.baselines.popularity.popularity_prior`) used for
            queries in which no location is known to the model. ``None``
            keeps the strict behaviour: such queries raise
            :class:`ConfigError`.
    """

    def __init__(
        self,
        embeddings: EmbeddingMatrix,
        vocabulary=None,
        exclude_input: bool = False,
        fallback_scores: np.ndarray | None = None,
    ) -> None:
        if embeddings is None:
            raise NotFittedError("recommender requires trained embeddings")
        self.embeddings = embeddings
        self.vocabulary = vocabulary
        self.exclude_input = exclude_input
        if fallback_scores is not None:
            fallback_scores = np.asarray(fallback_scores, dtype=np.float64)
            if fallback_scores.shape != (embeddings.num_locations,):
                raise ConfigError(
                    f"fallback_scores must have shape ({embeddings.num_locations},), "
                    f"got {fallback_scores.shape}"
                )
        self.fallback_scores = fallback_scores
        self._ids_by_token: np.ndarray | None = None

    def _decode_table(self) -> np.ndarray:
        """Cached object-dtype location-id array for vectorized decoding."""
        if self._ids_by_token is None:
            ids = self.vocabulary.locations()
            table = np.empty(len(ids), dtype=object)
            table[:] = ids
            self._ids_by_token = table
        return self._ids_by_token

    @property
    def num_locations(self) -> int:
        """Size of the scored location universe."""
        return self.embeddings.num_locations

    # -- encoding ----------------------------------------------------------------

    def encode_query(self, recent: Sequence[Hashable]) -> np.ndarray:
        """Known-location tokens of one query (empty when none are known).

        With a vocabulary, unknown POI ids are silently dropped; without
        one, tokens must already be in range.

        Raises:
            ConfigError: in token mode, when a token is out of range.
        """
        if self.vocabulary is not None:
            return np.asarray(self.vocabulary.encode_known(recent), dtype=np.int64)
        try:
            tokens = np.asarray(recent, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as error:
            raise ConfigError(f"tokens must be integers: {error}") from error
        if tokens.ndim != 1:
            raise ConfigError(f"query must be 1-D, got shape {tokens.shape}")
        if tokens.size and (
            int(tokens.min()) < 0
            or int(tokens.max()) >= self.embeddings.num_locations
        ):
            out_of_range = tokens[
                (tokens < 0) | (tokens >= self.embeddings.num_locations)
            ]
            raise ConfigError(f"tokens out of range: {out_of_range[:5].tolist()}")
        return tokens

    # Backwards-compatible private alias.
    _encode = encode_query

    # -- scoring kernels ---------------------------------------------------------
    #
    # Both kernels take the concatenated token array of all non-empty
    # queries plus the segment starts/lengths, and return one score row per
    # segment. The exact kernel's per-segment arithmetic (sequential
    # reduceat sum, elementwise divide, einsum contraction) is independent
    # of the other segments in the call, which is what makes batch-of-N
    # rows bit-identical to batch-of-1.

    def _score_segments_exact(
        self, flat: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        matrix = self.embeddings.matrix
        rows = matrix[flat]
        profiles = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
        return np.einsum("nd,ld->nl", profiles, matrix)

    def _score_segments_fast(
        self, flat: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        matrix32 = self.embeddings.matrix32
        rows = matrix32[flat]
        profiles = np.add.reduceat(rows, starts, axis=0) / counts[:, None].astype(
            np.float32
        )
        if profiles.shape[0] == 1:
            # A one-row product takes BLAS's matrix-vector path; scoring
            # the row twice sends a lone query through the matrix-matrix
            # path that batches take. That alone does not make scores
            # batch-independent: OpenBLAS still picks its float32 kernel
            # by shape, so on small models a query's scores differ in the
            # last bits between batch sizes (see the module docstring).
            # Only the exact kernel is batch-independent.
            return (np.repeat(profiles, 2, axis=0) @ matrix32.T)[:1]
        return profiles @ matrix32.T

    def _score_encoded(
        self, token_arrays: list[np.ndarray], mode: str
    ) -> np.ndarray:
        """Score rows for already-encoded queries (empty rows -> fallback)."""
        counts = np.fromiter(
            (len(tokens) for tokens in token_arrays),
            dtype=np.int64,
            count=len(token_arrays),
        )
        if len(token_arrays) == 1:
            flat = np.asarray(token_arrays[0], dtype=np.int64)
        elif token_arrays:
            flat = np.concatenate(
                [np.asarray(t, dtype=np.int64) for t in token_arrays]
            )
        else:
            flat = np.empty(0, dtype=np.int64)
        return self._score_flat(flat, counts, mode)

    def _score_flat(
        self, flat: np.ndarray, counts: np.ndarray, mode: str
    ) -> np.ndarray:
        """Score one row per segment of ``flat`` (empty rows -> fallback).

        ``flat`` holds the known tokens of every query back to back;
        ``counts[i]`` is query i's token count (0 = nothing known).
        """
        if mode not in _SCORING_MODES:
            raise ConfigError(f"mode must be one of {_SCORING_MODES}, got {mode!r}")
        num_locations = self.embeddings.num_locations
        num_queries = counts.size
        empty = np.flatnonzero(counts == 0)
        if empty.size and self.fallback_scores is None:
            raise ConfigError(
                "no recent check-in is in the model vocabulary for "
                f"{empty.size} of {num_queries} queries (first at index "
                f"{int(empty[0])}) and no fallback_scores are configured"
            )
        dtype = np.float64 if mode == "exact" else np.float32
        kernel = (
            self._score_segments_exact
            if mode == "exact"
            else self._score_segments_fast
        )
        if not num_queries:
            return np.empty((0, num_locations), dtype=dtype)
        if not empty.size:
            # Hot path (serving, evaluation): no fallback rows to splice in,
            # so the kernel output is returned without a scatter copy.
            starts = np.zeros(num_queries, dtype=np.intp)
            np.cumsum(counts[:-1], out=starts[1:])
            scores = kernel(flat, starts, counts)
        else:
            filled = np.flatnonzero(counts > 0)
            scores = np.empty((num_queries, num_locations), dtype=dtype)
            scores[empty] = self.fallback_scores.astype(dtype, copy=False)
            if filled.size:
                filled_counts = counts[filled]
                starts = np.zeros(filled.size, dtype=np.intp)
                np.cumsum(filled_counts[:-1], out=starts[1:])
                scores[filled] = kernel(flat, starts, filled_counts)
        if self.exclude_input and flat.size:
            rows = np.repeat(np.arange(num_queries), counts)
            scores[rows, flat] = -np.inf
        return scores

    # -- single-query API --------------------------------------------------------

    def score_all(self, recent: Sequence[Hashable]) -> np.ndarray:
        """Similarity score of every location token given recent check-ins.

        Uses the exact kernel; the returned row is bit-identical to the
        corresponding row of :meth:`score_batch`.

        Raises:
            ConfigError: if no input location is known to the model and no
                ``fallback_scores`` are configured.
        """
        return self._score_encoded([self.encode_query(recent)], mode="exact")[0]

    def recommend(
        self, recent: Sequence[Hashable], top_k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """Top-K next-location candidates with their similarity scores.

        Returns ``(location, score)`` pairs, best first; locations are raw
        POI ids when a vocabulary was supplied, tokens otherwise.
        """
        scores = self.score_all(recent)
        top = top_k_indices(scores, top_k)
        results: list[tuple[Hashable, float]] = []
        for token in top:
            location: Hashable = (
                self.vocabulary.location(int(token))
                if self.vocabulary is not None
                else int(token)
            )
            results.append((location, float(scores[token])))
        return results

    def hit(self, recent: Sequence[Hashable], actual_next: Hashable, top_k: int) -> bool:
        """Whether ``actual_next`` is among the top-K recommendations.

        This is the binary outcome of the paper's leave-one-out HR@k metric.
        """
        recommended = self.recommend(recent, top_k)
        return any(location == actual_next for location, _ in recommended)

    # -- batched API -------------------------------------------------------------

    def score_batch(
        self,
        queries: Sequence[Sequence[Hashable]],
        mode: str = "exact",
    ) -> np.ndarray:
        """Score all locations for each of N queries in one vectorized pass.

        Args:
            queries: N sequences of recent check-ins (raw POI ids in
                vocabulary mode, tokens otherwise).
            mode: ``"exact"`` (float64, rows bit-identical to
                :meth:`score_all`) or ``"fast"`` (float32 BLAS path).

        Returns:
            ``(N, num_locations)`` score matrix. Queries with no known
            location receive the fallback prior.

        Raises:
            ConfigError: on an unknown mode, a malformed query, or when a
                query has no known location and no ``fallback_scores`` are
                configured.
        """
        if self.vocabulary is not None:
            encode_known = self.vocabulary.encode_known
            encoded = [encode_known(recent) for recent in queries]
            counts = np.fromiter(
                map(len, encoded), dtype=np.int64, count=len(encoded)
            )
            flat = np.asarray(
                [token for tokens in encoded for token in tokens],
                dtype=np.int64,
            )
        else:
            counts = np.fromiter(
                map(len, queries), dtype=np.int64, count=len(queries)
            )
            try:
                flat = np.asarray(
                    [token for recent in queries for token in recent],
                    dtype=np.int64,
                )
            except (TypeError, ValueError, OverflowError) as error:
                raise ConfigError(f"tokens must be integers: {error}") from error
            if flat.size and (
                int(flat.min()) < 0
                or int(flat.max()) >= self.embeddings.num_locations
            ):
                out_of_range = flat[
                    (flat < 0) | (flat >= self.embeddings.num_locations)
                ]
                raise ConfigError(
                    f"tokens out of range: {out_of_range[:5].tolist()}"
                )
        return self._score_flat(flat, counts, mode=mode)

    def recommend_batch(
        self,
        queries: Sequence[Sequence[Hashable]],
        top_k: int = 10,
        mode: str = "exact",
    ) -> list[list[tuple[Hashable, float]]]:
        """Top-K candidates for each of N queries.

        One padded/segmented scoring pass plus a vectorized top-K selection
        instead of N Python-loop passes. In ``"exact"`` mode the i-th result
        list is bit-for-bit what ``recommend(queries[i], top_k)`` returns.
        """
        if not len(queries):
            return []
        scores = self.score_batch(queries, mode=mode)
        top = batched_top_k_indices(scores, top_k)
        top_scores = np.take_along_axis(scores, top, axis=1)
        if self.vocabulary is not None:
            locations = self._decode_table()[top].tolist()
        else:
            locations = top.tolist()
        return [
            list(zip(row_locations, row_scores))
            for row_locations, row_scores in zip(locations, top_scores.tolist())
        ]


def batched_top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise indices of the ``k`` largest scores, best first.

    Row i equals ``top_k_indices(scores[i], k)`` — the same introselect
    partition and stable ordering, applied along axis 1.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores)
    k = min(k, scores.shape[1])
    negated = -scores
    partition = np.argpartition(negated, k - 1, axis=1)[:, :k]
    order = np.argsort(
        np.take_along_axis(negated, partition, axis=1), axis=1, kind="stable"
    )
    return np.take_along_axis(partition, order, axis=1)
