"""Tests for repro.models.skipgram, including a full gradient check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.models.skipgram import BIAS, CONTEXT, EMBEDDING, SkipGramModel


@pytest.fixture()
def model() -> SkipGramModel:
    return SkipGramModel(num_locations=12, embedding_dim=5, num_negatives=3, rng=0)


def _random_batch(model, batch, rng):
    targets = rng.integers(0, model.num_locations, size=batch)
    contexts = rng.integers(0, model.num_locations, size=batch)
    negatives = rng.integers(0, model.num_locations, size=(batch, model.num_negatives))
    return targets, contexts, negatives


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
    def test_logits_shape(self, model):
        rng = np.random.default_rng(1)
        targets, contexts, negatives = _random_batch(model, 7, rng)
        candidates = np.concatenate([contexts[:, None], negatives], axis=1)
        logits = model.candidate_logits(model.params, targets, candidates)
        assert logits.shape == (7, 4)

    def test_logits_match_manual(self, model):
        params = model.params
        params[EMBEDDING][:] = np.random.default_rng(2).normal(size=(12, 5))
        params[CONTEXT][:] = np.random.default_rng(3).normal(size=(12, 5))
        params[BIAS][:] = np.arange(12.0)
        logits = model.candidate_logits(params, np.array([4]), np.array([[7, 2]]))
        expected_0 = params[CONTEXT][7] @ params[EMBEDDING][4] + params[BIAS][7]
        expected_1 = params[CONTEXT][2] @ params[EMBEDDING][4] + params[BIAS][2]
        assert logits[0, 0] == pytest.approx(expected_0)
        assert logits[0, 1] == pytest.approx(expected_1)


class TestGradients:
    def test_dense_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(5)
        # Perturb parameters away from zero so gradients are non-trivial.
        model.params[CONTEXT][:] = rng.normal(scale=0.2, size=(12, 5))
        model.params[BIAS][:] = rng.normal(scale=0.2, size=12)
        targets, contexts, negatives = _random_batch(model, 4, rng)
        _, grads = model.dense_gradients(model.params, targets, contexts, negatives)

        step = 1e-6
        for name in (EMBEDDING, CONTEXT, BIAS):
            tensor = model.params[name]
            flat_indices = np.random.default_rng(6).choice(
                tensor.size, size=min(12, tensor.size), replace=False
            )
            for flat in flat_indices:
                index = np.unravel_index(flat, tensor.shape)
                original = tensor[index]
                tensor[index] = original + step
                up, _ = model.loss_and_sparse_grads(
                    model.params, targets, contexts, negatives
                )
                tensor[index] = original - step
                down, _ = model.loss_and_sparse_grads(
                    model.params, targets, contexts, negatives
                )
                tensor[index] = original
                numeric = (up - down) / (2 * step)
                assert grads[name][index] == pytest.approx(numeric, abs=1e-5)

    def test_sparsity_of_updates(self, model):
        # Only the target row of W and the candidate rows of Wc/b change.
        rng = np.random.default_rng(7)
        model.params[CONTEXT][:] = rng.normal(scale=0.2, size=(12, 5))
        targets = np.array([3])
        contexts = np.array([5])
        negatives = np.array([[8, 1, 5]])
        _, grads = model.dense_gradients(model.params, targets, contexts, negatives)
        touched_w = set(np.flatnonzero(np.abs(grads[EMBEDDING]).sum(axis=1)))
        touched_wc = set(np.flatnonzero(np.abs(grads[CONTEXT]).sum(axis=1)))
        assert touched_w <= {3}
        assert touched_wc <= {5, 8, 1}

    def test_negatives_shape_validated(self, model):
        with pytest.raises(ConfigError):
            model.loss_and_sparse_grads(
                model.params, np.array([1]), np.array([2]), np.array([[1, 2]])
            )


class TestSgdStep:
    def test_reduces_loss_on_repeated_batch(self, model):
        rng = np.random.default_rng(8)
        targets = np.array([1, 2, 3, 1] * 4)
        contexts = np.array([2, 3, 1, 3] * 4)
        negatives = model.sample_negatives(len(targets), rng)
        before, _ = model.loss_and_sparse_grads(
            model.params, targets, contexts, negatives
        )
        for _ in range(50):
            model.sgd_step(model.params, targets, contexts, 0.5, rng)
        after, _ = model.loss_and_sparse_grads(
            model.params, targets, contexts, negatives
        )
        assert after < before

    def test_sparse_update_matches_dense(self, model):
        rng = np.random.default_rng(9)
        model.params[CONTEXT][:] = rng.normal(scale=0.2, size=(12, 5))
        targets, contexts, negatives = _random_batch(model, 6, rng)
        dense_params = model.params.copy()
        _, grads = model.dense_gradients(dense_params, targets, contexts, negatives)
        for name, grad in grads.items():
            dense_params[name] -= 0.1 * grad

        sparse_params = model.params.copy()
        _, pieces = model.loss_and_sparse_grads(
            sparse_params, targets, contexts, negatives
        )
        model.apply_sparse_update(sparse_params, pieces, 0.1)
        assert sparse_params.allclose(dense_params)


class TestInference:
    def test_normalized_embeddings_unit_rows(self, model):
        rows = model.normalized_embeddings()
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

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

    def test_evaluate_loss_no_mutation(self, model):
        before = model.params.copy()
        pairs = np.array([[1, 2], [3, 4]])
        loss = model.evaluate_loss(pairs, rng=0)
        assert np.isfinite(loss)
        assert model.params.allclose(before)

    def test_evaluate_loss_empty(self, model):
        assert np.isnan(model.evaluate_loss(np.empty((0, 2), dtype=np.int64)))

    def test_clone_architecture(self, model):
        clone = model.clone_architecture(rng=1)
        assert clone.num_locations == model.num_locations
        assert clone.embedding_dim == model.embedding_dim
        assert not clone.params.allclose(model.params)  # fresh init
