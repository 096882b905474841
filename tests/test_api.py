"""Tests for the stable ``repro.api`` facade.

These exercise the four guaranteed names — ``train`` / ``load`` /
``evaluate`` / ``TrainedModel`` — through the package root, the way user
code is documented to call them.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
import repro.baselines
import repro.models
import repro.nn
from repro.core.config import PLPConfig
from repro.exceptions import ConfigError
from repro.models.embeddings import EmbeddingMatrix
from repro.models.vocabulary import LocationVocabulary


def _tiny_model() -> repro.TrainedModel:
    rng = np.random.default_rng(3)
    embeddings = EmbeddingMatrix(rng.normal(size=(12, 6)))
    vocabulary = LocationVocabulary.from_locations(
        [f"poi-{i}" for i in range(12)], counts=[12 - i for i in range(12)]
    )
    return repro.TrainedModel(
        embeddings=embeddings, vocabulary=vocabulary, privacy={"epsilon": 2.0}
    )


def test_facade_names_exported_from_package_root():
    for name in ("train", "load", "evaluate", "TrainedModel"):
        assert name in repro.__all__
        assert callable(getattr(repro, name))


@pytest.mark.parametrize("package", [repro, repro.models, repro.nn, repro.baselines])
class TestLazyExports:
    """Package exports load their module on first access (``repro._lazy``)."""

    def test_every_export_is_the_leaf_modules_object(self, package):
        exports = package._EXPORTS
        assert [name for name in package.__all__ if name != "__version__"] == list(exports)
        for name, source in exports.items():
            assert getattr(package, name) is getattr(importlib.import_module(source), name)

    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_from_import_and_unknown_names(self, package):
        name = package.__all__[-1]
        namespace: dict = {}
        exec(f"from {package.__name__} import {name}", namespace)
        assert namespace[name] is getattr(package, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name


class TestTrainedModel:
    def test_recommend_and_batch_agree(self):
        model = _tiny_model()
        queries = [["poi-0", "poi-4"], ["poi-7"]]
        batched = model.recommend_batch(queries, top_k=3)
        assert batched == [model.recommend(q, top_k=3) for q in queries]

    def test_save_load_round_trip(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "model.npz"
        assert model.save(path, include_counts=True) is model
        loaded = repro.load(path)
        assert loaded.privacy == {"epsilon": 2.0}
        assert loaded.history is None
        assert loaded.vocabulary.count(0) == 12
        query = ["poi-1", "poi-2"]
        np.testing.assert_allclose(
            [s for _, s in loaded.recommend(query)],
            [s for _, s in model.recommend(query)],
        )

    def test_counts_stay_private_by_default(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "model.npz"
        model.save(path)
        assert repro.load(path).vocabulary.counts() == {}

    def test_recommender_options(self):
        model = _tiny_model()
        plain = model.recommender()
        assert plain.fallback_scores is None
        with_fallback = model.recommender(with_fallback=True)
        assert with_fallback.fallback_scores is not None
        assert np.isfinite(with_fallback.score_all(["nowhere"])).all()
        masked = model.recommender(exclude_input=True)
        top = [loc for loc, _ in masked.recommend(["poi-3"], top_k=11)]
        assert "poi-3" not in top


class TestTrain:
    def test_nonprivate_training_end_to_end(self, small_dataset):
        model = repro.train(
            {"embedding_dim": 8, "num_negatives": 2},
            small_dataset,
            method="nonprivate",
            rng=5,
            epochs=1,
        )
        assert isinstance(model, repro.TrainedModel)
        assert model.privacy["mechanism"] == "none"
        assert model.history is not None
        assert model.embeddings.dim == 8
        assert len(model.recommend(model.vocabulary.locations()[:2], top_k=3)) == 3

    def test_private_training_records_budget(self, small_dataset):
        config = PLPConfig(
            epsilon=2.0, embedding_dim=8, num_negatives=2, max_steps=3
        )
        model = repro.train(config, small_dataset, rng=5)
        assert model.privacy["mechanism"] == "plp"
        assert 0 < model.privacy["epsilon"] <= 2.0 + 1e-9
        assert model.privacy["steps"] == len(model.history)

    def test_invalid_inputs_raise_config_error(self, small_dataset):
        with pytest.raises(ConfigError):
            repro.train(method="magic", dataset=small_dataset)
        with pytest.raises(ConfigError):
            repro.train(config=42, dataset=small_dataset)
        with pytest.raises(ConfigError):
            repro.train({"no_such_field": 1}, small_dataset)


class TestEvaluate:
    def test_accepts_trained_model_and_trajectories(self, holdout_trajectories):
        model = _tiny_model_for(holdout_trajectories)
        result = repro.evaluate(model, holdout_trajectories, k_values=(1, 5))
        assert set(result.hit_rate) == {1, 5}
        assert result.num_cases > 0

    def test_accepts_raw_embeddings(self, holdout_trajectories):
        model = _tiny_model_for(holdout_trajectories)
        result_model = repro.evaluate(model, holdout_trajectories, k_values=(5,))
        from repro.types import Trajectory

        token_trajectories = [
            Trajectory(
                user=trajectory.user,
                locations=tuple(
                    model.vocabulary.encode_known(trajectory.locations)
                ),
            )
            for trajectory in holdout_trajectories
        ]
        result_matrix = repro.evaluate(
            model.embeddings, token_trajectories, k_values=(5,)
        )
        assert result_matrix.num_cases >= 1
        assert isinstance(result_model.mrr, float)

    def test_rejects_non_models(self, holdout_trajectories):
        with pytest.raises(ConfigError):
            repro.evaluate(object(), holdout_trajectories)


def _tiny_model_for(trajectories) -> repro.TrainedModel:
    vocabulary = LocationVocabulary.from_sequences(trajectories)
    rng = np.random.default_rng(9)
    embeddings = EmbeddingMatrix(rng.normal(size=(vocabulary.size, 6)))
    return repro.TrainedModel(embeddings=embeddings, vocabulary=vocabulary)
