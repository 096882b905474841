"""Shared fixtures for the serving tests: small saved artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.embeddings import EmbeddingMatrix
from repro.models.serialization import save_deployable_model
from repro.models.vocabulary import LocationVocabulary
from repro.serving.asgi import BackgroundServer
from repro.serving.service import RecommendService

NUM_LOCATIONS = 40
EMBEDDING_DIM = 8
PRIVACY = {"epsilon": 2.0, "delta": 2e-4, "mechanism": "PLP"}


def _build_model() -> tuple[EmbeddingMatrix, LocationVocabulary]:
    rng = np.random.default_rng(31)
    embeddings = EmbeddingMatrix(rng.normal(size=(NUM_LOCATIONS, EMBEDDING_DIM)))
    vocabulary = LocationVocabulary.from_locations(
        [f"poi-{i}" for i in range(NUM_LOCATIONS)],
        counts=[NUM_LOCATIONS - i for i in range(NUM_LOCATIONS)],
    )
    return embeddings, vocabulary


@pytest.fixture(scope="session")
def artifact_path(tmp_path_factory) -> str:
    """A deployable artifact saved WITH counts (popularity prior restores)."""
    embeddings, vocabulary = _build_model()
    path = tmp_path_factory.mktemp("artifacts") / "model.npz"
    save_deployable_model(
        path, embeddings, vocabulary, privacy_metadata=PRIVACY, include_counts=True
    )
    return str(path)


@pytest.fixture(scope="session")
def countless_artifact_path(tmp_path_factory) -> str:
    """The same model saved WITHOUT counts (default; uniform fallback)."""
    embeddings, vocabulary = _build_model()
    path = tmp_path_factory.mktemp("artifacts") / "model-nocounts.npz"
    save_deployable_model(path, embeddings, vocabulary, privacy_metadata=PRIVACY)
    return str(path)


@pytest.fixture(scope="module")
def server(artifact_path):
    """A live asyncio server over the counted artifact, one per test module."""
    service = RecommendService.from_artifact(artifact_path, mode="exact")
    with BackgroundServer(service) as background:
        yield background
    service.close()
