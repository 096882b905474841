"""Tests for repro.models.skipgram, including a full gradient check.

The gradient oracles run through the one kernel entry point,
``fused_multi_bucket_update``, on a single fixed batch with clipping off
(``clip_bound=inf``): the bucket delta is then ``-learning_rate`` times
the gradient at theta, and ``mean_loss`` is the loss at theta.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bucket import BucketUpdate, _local_update_spec
from repro.exceptions import ConfigError
from repro.models.skipgram import BIAS, CONTEXT, EMBEDDING, SkipGramModel
from repro.nn.backends import BucketBatch

#: Every (loss, negative sharing) pair the kernels run.
MODES = [
    (loss, sharing)
    for loss in ("sampled_softmax", "negative_sampling", "nce")
    for sharing in ("batch", "per_pair")
]


@pytest.fixture()
def model() -> SkipGramModel:
    return SkipGramModel(num_locations=12, embedding_dim=5, num_negatives=3, rng=0)


def _perturbed_model(loss: str, sharing: str) -> SkipGramModel:
    """A model with non-zero ``Wc``/``b``, so every gradient is non-trivial."""
    model = SkipGramModel(
        num_locations=12, embedding_dim=5, num_negatives=3, loss=loss,
        negative_sharing=sharing, rng=0,
    )
    rng = np.random.default_rng(5)
    model.params[CONTEXT][:] = rng.normal(scale=0.2, size=(12, 5))
    model.params[BIAS][:] = rng.normal(scale=0.2, size=12)
    return model


def _random_batch(model, batch, rng) -> BucketBatch:
    """A batch with the model's negative layout: ``(neg,)`` shared or
    ``(batch, neg)`` per pair."""
    targets = rng.integers(0, model.num_locations, size=batch)
    contexts = rng.integers(0, model.num_locations, size=batch)
    shape = (model.num_negatives,)
    if model.negative_sharing == "per_pair":
        shape = (batch, model.num_negatives)
    negatives = rng.integers(0, model.num_locations, size=shape)
    return BucketBatch(targets=targets, contexts=contexts, negatives=negatives)


def _local_sgd(model, params, batches, learning_rate=1.0) -> BucketUpdate:
    """One bucket of ``batches`` from ``params``, unclipped."""
    spec = _local_update_spec(model, learning_rate, math.inf, "global")
    (delta,) = model.backend.fused_multi_bucket_update(params, [batches], spec)
    return BucketUpdate.from_delta(delta)


def _loss_at(model, params, batch) -> float:
    return _local_sgd(model, params, [batch]).mean_loss


def _finite_difference(model, batch, name, index, step=1e-6) -> float:
    tensor = model.params[name]
    original = tensor[index]
    tensor[index] = original + step
    up = _loss_at(model, model.params, batch)
    tensor[index] = original - step
    down = _loss_at(model, model.params, batch)
    tensor[index] = original
    return (up - down) / (2 * step)


class TestConstruction:
    def test_parameter_shapes(self, model):
        assert model.params.shapes() == {
            EMBEDDING: (12, 5),
            CONTEXT: (12, 5),
            BIAS: (12,),
        }

    def test_context_and_bias_start_zero(self, model):
        assert not model.params[CONTEXT].any()
        assert not model.params[BIAS].any()

    def test_embedding_word2vec_range(self, model):
        assert np.abs(model.params[EMBEDDING]).max() <= 0.5 / 5

    def test_rejects_invalid(self):
        with pytest.raises(ConfigError):
            SkipGramModel(num_locations=1)
        with pytest.raises(ConfigError):
            SkipGramModel(num_locations=10, embedding_dim=0)
        with pytest.raises(ConfigError):
            SkipGramModel(num_locations=10, num_negatives=0)
        with pytest.raises(ConfigError):
            SkipGramModel(num_locations=10, loss="bogus")


class TestForward:
    def test_logits_match_manual(self, model):
        params = model.params
        params[EMBEDDING][:] = np.random.default_rng(2).normal(size=(12, 5))
        params[CONTEXT][:] = np.random.default_rng(3).normal(size=(12, 5))
        params[BIAS][:] = np.arange(12.0)
        batch = BucketBatch(
            targets=np.array([4]), contexts=np.array([7]), negatives=np.array([2, 9, 0])
        )
        logits = np.array(
            [[params[CONTEXT][c] @ params[EMBEDDING][4] + params[BIAS][c] for c in (7, 2, 9, 0)]]
        )
        expected = model.loss_fn.value_and_grad(logits).loss
        assert _loss_at(model, params, batch) == pytest.approx(expected, rel=1e-12)


class TestGradients:
    def test_dense_gradient_matches_finite_differences(self):
        for loss, sharing in MODES:
            model = _perturbed_model(loss, sharing)
            batch = _random_batch(model, 4, np.random.default_rng(5))
            grads = _local_sgd(model, model.params, [batch]).delta

            for name in (EMBEDDING, CONTEXT, BIAS):
                tensor = model.params[name]
                flat_indices = np.random.default_rng(6).choice(
                    tensor.size, size=min(12, tensor.size), replace=False
                )
                for flat in flat_indices:
                    index = np.unravel_index(flat, tensor.shape)
                    numeric = _finite_difference(model, batch, name, index)
                    assert -grads[name][index] == pytest.approx(numeric, abs=1e-5), (
                        loss, sharing, name, index,
                    )

    @pytest.mark.parametrize(("loss", "sharing"), MODES)
    def test_sparsity_of_updates(self, loss, sharing):
        # Only the target rows of W and the candidate rows of Wc/b change.
        model = _perturbed_model(loss, sharing)
        batch = _random_batch(model, 2, np.random.default_rng(7))
        update = _local_sgd(model, model.params, [batch])
        candidates = set(batch.contexts) | set(batch.negatives.ravel())
        assert set(update.rows[EMBEDDING]) <= set(batch.targets)
        assert set(update.rows[CONTEXT]) <= candidates
        assert set(update.rows[BIAS]) <= candidates

    @pytest.mark.parametrize(("loss", "sharing"), MODES)
    def test_sparse_update_matches_dense(self, loss, sharing):
        # The sparse delta, scattered into theta, is one dense SGD step
        # along the finite-difference gradient of every entry.
        model = _perturbed_model(loss, sharing)
        batch = _random_batch(model, 6, np.random.default_rng(9))
        dense_params = model.params.copy()
        for name in (EMBEDDING, CONTEXT, BIAS):
            tensor = model.params[name]
            for flat in range(tensor.size):
                index = np.unravel_index(flat, tensor.shape)
                numeric = _finite_difference(model, batch, name, index)
                dense_params[name][index] -= 0.1 * numeric

        update = _local_sgd(model, model.params, [batch], learning_rate=0.1)
        sparse_params = model.params.copy().add_(update.delta)
        assert sparse_params.allclose(dense_params, rtol=0, atol=1e-9)


class TestSgdStep:
    def test_reduces_loss_on_repeated_batch(self):
        for sharing in ("batch", "per_pair"):
            model = SkipGramModel(
                num_locations=12, embedding_dim=5, num_negatives=3,
                negative_sharing=sharing, rng=0,
            )
            rng = np.random.default_rng(8)
            batches = [
                BucketBatch(
                    targets=np.array([1, 2, 3, 1] * 4),
                    contexts=np.array([2, 3, 1, 3] * 4),
                    negatives=_random_batch(model, 16, rng).negatives,
                )
                for _ in range(50)
            ]
            update = _local_sgd(model, model.params, batches, learning_rate=0.5)
            trained = model.params.copy().add_(update.delta)
            before = _loss_at(model, model.params, batches[0])
            after = _loss_at(model, trained, batches[0])
            assert after < before, sharing


class TestInference:
    def test_sample_negatives_range(self, model):
        negatives = model.sample_negatives(100, rng=0)
        assert negatives.shape == (100, 3)
        assert negatives.min() >= 0
        assert negatives.max() < 12

    def test_negatives_approximately_uniform(self):
        model = SkipGramModel(num_locations=10, embedding_dim=2, num_negatives=5, rng=0)
        negatives = model.sample_negatives(20_000, rng=1)
        counts = np.bincount(negatives.ravel(), minlength=10)
        assert counts.min() > 0.9 * counts.mean()
