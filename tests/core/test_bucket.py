"""Tests for ModelUpdateFromBucket (Algorithm 1, lines 15-22).

Each test runs one bucket through :func:`model_updates_from_buckets` as a
one-element chunk.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bucket import model_updates_from_buckets
from repro.exceptions import ConfigError
from repro.models.skipgram import SkipGramModel
from repro.privacy.clipping import joint_l2_norm


@pytest.fixture()
def model() -> SkipGramModel:
    return SkipGramModel(num_locations=20, embedding_dim=6, num_negatives=4, rng=0)


def _one_bucket(model, theta, pairs, *args, rng=None, **kwargs):
    """One bucket's clipped update, computed as a chunk of one."""
    (update,) = model_updates_from_buckets(
        model, theta, [pairs], *args, rngs=[rng], **kwargs
    )
    return update


def _bucket_pairs(n: int = 60, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 20, size=(n, 2)).astype(np.int64)


class TestModelUpdateFromBucket:
    def test_theta_not_modified(self, model):
        theta = model.params
        snapshot = theta.copy()
        _one_bucket(
            model, theta, _bucket_pairs(), 16, 0.1, clip_bound=0.5, rng=0
        )
        assert theta.allclose(snapshot)

    def test_clipped_norm_bounded(self, model):
        update = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 5.0, clip_bound=0.1, rng=0
        )
        assert joint_l2_norm(update.delta) <= 0.1 + 1e-9

    def test_per_layer_tensor_bounds(self, model):
        update = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 5.0,
            clip_bound=0.3, clipping="per_layer", rng=0,
        )
        per_tensor = 0.3 / math.sqrt(3)
        for tensor in update.delta.values():
            assert np.linalg.norm(tensor) <= per_tensor + 1e-9

    def test_global_clipping_preserves_direction(self, model):
        raw = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 5.0,
            clip_bound=1e9, clipping="global", rng=0,
        )
        clipped = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 5.0,
            clip_bound=0.1, clipping="global", rng=0,
        )
        # Same rng sequence -> same raw delta; global clipping scales all
        # tensors by the same factor.
        scale = clipped.delta["W"].ravel() @ raw.delta["W"].ravel() / (
            np.linalg.norm(raw.delta["W"]) ** 2 + 1e-30
        )
        for name in raw.delta:
            assert np.allclose(clipped.delta[name], scale * raw.delta[name], atol=1e-12)

    def test_small_update_not_clipped(self, model):
        update = _one_bucket(
            model, model.params, _bucket_pairs(5), 16, 1e-4, clip_bound=10.0, rng=0
        )
        assert update.unclipped_norm == pytest.approx(joint_l2_norm(update.delta), rel=1e-9)

    def test_empty_bucket_zero_delta(self, model):
        update = _one_bucket(
            model, model.params, np.empty((0, 2), dtype=np.int64), 16, 0.1,
            clip_bound=0.5, rng=0,
        )
        assert update.num_batches == 0
        assert joint_l2_norm(update.delta) == 0.0
        assert math.isnan(update.mean_loss)

    def test_num_batches(self, model):
        update = _one_bucket(
            model, model.params, _bucket_pairs(33), 16, 0.1, clip_bound=0.5, rng=0
        )
        assert update.num_batches == 3  # ceil(33 / 16)

    def test_single_gradient_mode_one_batch(self, model):
        update = _one_bucket(
            model, model.params, _bucket_pairs(100), 16, 0.1,
            clip_bound=0.5, local_update="gradient", rng=0,
        )
        assert update.num_batches == 1

    def test_gradient_mode_smaller_than_sgd(self, model):
        # One gradient step moves less than a multi-batch local SGD pass.
        sgd = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 0.1,
            clip_bound=1e9, rng=0,
        )
        gradient = _one_bucket(
            model, model.params, _bucket_pairs(200), 16, 0.1,
            clip_bound=1e9, local_update="gradient", rng=0,
        )
        assert gradient.unclipped_norm < sgd.unclipped_norm

    def test_invalid_modes(self, model):
        with pytest.raises(ConfigError):
            _one_bucket(
                model, model.params, _bucket_pairs(), 16, 0.1,
                clip_bound=0.5, clipping="l1",
            )
        with pytest.raises(ConfigError):
            _one_bucket(
                model, model.params, _bucket_pairs(), 16, 0.1,
                clip_bound=0.5, local_update="warp",
            )
