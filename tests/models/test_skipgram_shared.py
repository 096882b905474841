"""Tests for the shared-negative (TF sampled-softmax style) layout.

A batch whose ``(neg,)`` negatives are shared by every pair must train
exactly like the same batch with those negatives replicated per pair.
Both run through ``fused_multi_bucket_update`` with clipping off.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bucket import BucketUpdate, _local_update_spec
from repro.exceptions import ConfigError
from repro.models.skipgram import BIAS, CONTEXT, EMBEDDING, SkipGramModel
from repro.nn.backends import BucketBatch

LOSSES = ["sampled_softmax", "negative_sampling", "nce"]


def _model(loss: str) -> SkipGramModel:
    model = SkipGramModel(
        num_locations=15, embedding_dim=6, num_negatives=4, loss=loss,
        negative_sharing="batch", rng=0,
    )
    rng = np.random.default_rng(5)
    model.params[CONTEXT][:] = rng.normal(scale=0.2, size=(15, 6))
    model.params[BIAS][:] = rng.normal(scale=0.2, size=15)
    return model


def _shared_and_replicated() -> tuple[BucketBatch, BucketBatch]:
    targets = np.array([1, 2, 3])
    contexts = np.array([4, 5, 6])
    negatives = np.array([7, 8, 9, 10])
    shared = BucketBatch(targets=targets, contexts=contexts, negatives=negatives)
    replicated = BucketBatch(
        targets=targets, contexts=contexts, negatives=np.tile(negatives, (3, 1))
    )
    return shared, replicated


def _one_step(model, batch, learning_rate) -> BucketUpdate:
    spec = _local_update_spec(model, learning_rate, math.inf, "global")
    (delta,) = model.backend.fused_multi_bucket_update(model.params, [[batch]], spec)
    return BucketUpdate.from_delta(delta)


class TestSharedGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        batch = BucketBatch(
            targets=rng.integers(0, 15, size=5),
            contexts=rng.integers(0, 15, size=5),
            negatives=rng.integers(0, 15, size=4),
        )
        step = 1e-6
        for loss in LOSSES:
            model = _model(loss)
            grads = _one_step(model, batch, 1.0).delta
            for name in (EMBEDDING, CONTEXT, BIAS):
                tensor = model.params[name]
                for flat in np.random.default_rng(2).choice(
                    tensor.size, size=10, replace=False
                ):
                    index = np.unravel_index(flat, tensor.shape)
                    original = tensor[index]
                    tensor[index] = original + step
                    up = _one_step(model, batch, 1.0).mean_loss
                    tensor[index] = original - step
                    down = _one_step(model, batch, 1.0).mean_loss
                    tensor[index] = original
                    assert -grads[name][index] == pytest.approx(
                        (up - down) / (2 * step), abs=1e-5
                    ), (loss, name, index)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_loss_matches_per_pair_with_same_candidates(self, loss):
        # When the shared negatives are replicated per pair, the two paths
        # compute the same logits and therefore the same loss.
        model = _model(loss)
        shared, replicated = _shared_and_replicated()
        shared_loss = _one_step(model, shared, 0.1).mean_loss
        per_pair_loss = _one_step(model, replicated, 0.1).mean_loss
        assert shared_loss == pytest.approx(per_pair_loss)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_update_matches_per_pair_with_same_candidates(self, loss):
        model = _model(loss)
        shared, replicated = _shared_and_replicated()
        shared_delta = _one_step(model, shared, 0.1).delta
        per_pair_delta = _one_step(model, replicated, 0.1).delta
        for name, tensor in shared_delta.items():
            assert np.allclose(tensor, per_pair_delta[name], rtol=1e-9, atol=1e-12)

    def test_invalid_sharing_mode_rejected(self):
        with pytest.raises(ConfigError):
            SkipGramModel(num_locations=10, negative_sharing="everything")
