"""Batched scoring: equivalence with the single-query path and degradation.

The contract under test is the one the evaluator and the serving layer
rely on: in ``"exact"`` mode, ``score_batch``/``recommend_batch`` rows are
bit-for-bit what the per-query calls return, regardless of batch
composition; queries with nothing known to the model hit the fallback
prior (or a typed error), never NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.models.embeddings import EmbeddingMatrix, top_k_indices
from repro.models.recommender import NextLocationRecommender, batched_top_k_indices
from repro.models.vocabulary import LocationVocabulary

L, DIM = 80, 12


@pytest.fixture(scope="module")
def embeddings() -> EmbeddingMatrix:
    rng = np.random.default_rng(11)
    return EmbeddingMatrix(rng.normal(size=(L, DIM)))


@pytest.fixture(scope="module")
def vocabulary() -> LocationVocabulary:
    return LocationVocabulary.from_locations(
        [f"poi-{i}" for i in range(L)], counts=list(range(1, L + 1))
    )


def _random_queries(rng, n, vocabulary=None):
    queries = []
    for _ in range(n):
        tokens = rng.integers(0, L, size=int(rng.integers(1, 15)))
        if vocabulary is None:
            queries.append(tokens.tolist())
        else:
            queries.append([f"poi-{t}" for t in tokens])
    return queries


@pytest.mark.parametrize("use_vocab", [False, True])
def test_score_batch_rows_bitwise_equal_score_all(embeddings, vocabulary, use_vocab):
    rng = np.random.default_rng(5)
    recommender = NextLocationRecommender(
        embeddings, vocabulary=vocabulary if use_vocab else None
    )
    queries = _random_queries(rng, 100, vocabulary if use_vocab else None)
    batch = recommender.score_batch(queries, mode="exact")
    assert batch.shape == (100, L)
    for i, query in enumerate(queries):
        assert np.array_equal(batch[i], recommender.score_all(query))


@pytest.mark.parametrize("use_vocab", [False, True])
def test_recommend_batch_equals_per_query_recommend(embeddings, vocabulary, use_vocab):
    rng = np.random.default_rng(6)
    recommender = NextLocationRecommender(
        embeddings, vocabulary=vocabulary if use_vocab else None
    )
    queries = _random_queries(rng, 100, vocabulary if use_vocab else None)
    batch = recommender.recommend_batch(queries, top_k=10, mode="exact")
    per_query = [recommender.recommend(query, top_k=10) for query in queries]
    assert batch == per_query  # bit-for-bit: same locations, same floats


def test_batch_rows_independent_of_batch_composition(embeddings):
    recommender = NextLocationRecommender(embeddings)
    rng = np.random.default_rng(8)
    queries = _random_queries(rng, 32, None)
    for mode in ("exact", "fast"):
        whole = recommender.score_batch(queries, mode=mode)
        # The same query scored in a different batch (or alone) is identical.
        shuffled = list(reversed(queries))
        reversed_batch = recommender.score_batch(shuffled, mode=mode)
        assert np.array_equal(whole, reversed_batch[::-1]), mode
        for i, query in enumerate(queries):
            alone = recommender.score_batch([query], mode=mode)
            assert np.array_equal(whole[i], alone[0]), (mode, i)


def test_fast_mode_matches_exact_ranking_closely(embeddings):
    recommender = NextLocationRecommender(embeddings)
    rng = np.random.default_rng(9)
    queries = _random_queries(rng, 50, None)
    exact = recommender.score_batch(queries, mode="exact")
    fast = recommender.score_batch(queries, mode="fast")
    assert fast.dtype == np.float32
    np.testing.assert_allclose(fast, exact, atol=1e-5)
    # Top-1 agreement: float32 rounding must not change the best candidate
    # on this well-separated synthetic geometry.
    assert np.array_equal(np.argmax(exact, axis=1), np.argmax(fast, axis=1))


def test_exclude_input_masks_every_query_token(embeddings):
    recommender = NextLocationRecommender(embeddings, exclude_input=True)
    queries = [[0, 1, 2], [5], [7, 7, 9]]
    scores = recommender.score_batch(queries, mode="exact")
    for i, query in enumerate(queries):
        assert np.all(np.isneginf(scores[i, query]))
        others = np.setdiff1d(np.arange(L), query)
        assert np.all(np.isfinite(scores[i, others]))
    per_query = [recommender.recommend(q, top_k=5) for q in queries]
    assert recommender.recommend_batch(queries, top_k=5, mode="exact") == per_query


def test_empty_query_uses_fallback_prior(embeddings, vocabulary):
    prior = np.linspace(1.0, 2.0, L)
    recommender = NextLocationRecommender(
        embeddings, vocabulary=vocabulary, fallback_scores=prior
    )
    scores = recommender.score_batch(
        [["poi-3"], ["unknown-a", "unknown-b"], []], mode="exact"
    )
    assert np.array_equal(scores[1], prior)
    assert np.array_equal(scores[2], prior)
    assert not np.array_equal(scores[0], prior)
    assert not np.isnan(scores).any()
    # The single-query path agrees.
    assert np.array_equal(recommender.score_all(["unknown-a"]), prior)


def test_empty_query_without_fallback_raises_config_error(embeddings, vocabulary):
    recommender = NextLocationRecommender(embeddings, vocabulary=vocabulary)
    with pytest.raises(ConfigError):
        recommender.score_batch([["poi-1"], ["unknown"]], mode="exact")
    with pytest.raises(ConfigError):
        recommender.score_all([])


def test_fallback_shape_is_validated(embeddings):
    with pytest.raises(ConfigError):
        NextLocationRecommender(embeddings, fallback_scores=np.ones(L + 1))


def test_invalid_mode_and_tokens_raise(embeddings):
    recommender = NextLocationRecommender(embeddings)
    with pytest.raises(ConfigError):
        recommender.score_batch([[0]], mode="turbo")
    with pytest.raises(ConfigError):
        recommender.score_batch([[0], [L + 5]])
    with pytest.raises(ConfigError):
        recommender.score_all([-1])


def test_score_batch_empty_input(embeddings):
    recommender = NextLocationRecommender(embeddings)
    assert recommender.score_batch([]).shape == (0, L)
    assert recommender.recommend_batch([]) == []


def test_batched_top_k_matches_single_row_top_k():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=(40, 33))
    # Inject ties to exercise the stable ordering.
    scores[:, 5] = scores[:, 17]
    top = batched_top_k_indices(scores, 7)
    for i in range(scores.shape[0]):
        assert np.array_equal(top[i], top_k_indices(scores[i], 7))
    # k larger than the row width clamps, like the 1-D helper.
    wide = batched_top_k_indices(scores, 100)
    assert wide.shape == (40, 33)
    with pytest.raises(ConfigError):
        batched_top_k_indices(scores, 0)
