"""Seeded inputs: every corpus, store, artifact and query stream.

Each function is a pure function of its arguments (the seed included), so
one ``--seed`` always yields the same inputs. The program under test only
ever receives what these functions build.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.checkins import CheckinDataset
from repro.data.splitting import sessionize_dataset
from repro.data.store import write_sharded_store
from repro.data.synthetic import SyntheticConfig, generate_checkins
from repro.models.embeddings import EmbeddingMatrix
from repro.models.serialization import save_deployable_model
from repro.models.vocabulary import LocationVocabulary


def training_corpus(
    seed: int,
    users: int,
    holdout_users: int,
    locations: int,
    checkins_per_user: float,
) -> tuple[CheckinDataset, CheckinDataset]:
    """A Tokyo-profile synthetic corpus split into train and held-out users.

    One generator call draws ``users + holdout_users`` users over one POI
    world; the first ``users`` ids train, the rest are held out for the
    leave-one-out HR@10.
    """
    config = SyntheticConfig(
        num_users=users + holdout_users,
        num_locations=locations,
        mean_checkins_per_user=checkins_per_user,
    )
    everyone = CheckinDataset(generate_checkins(config, rng=seed))
    return (
        everyone.subset(range(users)),
        everyone.subset(range(users, users + holdout_users)),
    )


def sharded_store(dataset: CheckinDataset, path: Path) -> str:
    """Write ``dataset`` as an on-disk sharded store; returns its path."""
    write_sharded_store(path, dataset, users_per_shard=1024)
    return str(path)


def serving_artifact(
    seed: int, path: Path, locations: int, dim: int
) -> tuple[str, list[tuple[int, ...]]]:
    """A deployable artifact plus the query stream that exercises it.

    The artifact holds ``locations`` POIs (token order shuffled by the
    seed, so tokens never equal POI ids) with seeded ``dim``-wide
    embeddings. Queries are the recent-check-in windows (one to five
    visits) of synthetic trajectories over the same POI universe.
    """
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(locations).tolist()
    vocabulary = LocationVocabulary.from_locations(order)
    embeddings = EmbeddingMatrix(rng.standard_normal((locations, dim)))
    save_deployable_model(
        path,
        embeddings,
        vocabulary,
        privacy_metadata={"mechanism": "benchmark-synthetic"},
    )
    trajectories = sessionize_dataset(
        CheckinDataset(
            generate_checkins(
                SyntheticConfig(
                    num_users=300,
                    num_locations=locations,
                    num_clusters=80,
                    mean_checkins_per_user=40.0,
                ),
                rng=[seed, 2],
            )
        )
    )
    queries: list[tuple[int, ...]] = []
    for trajectory in trajectories:
        visits = [int(location) for location in trajectory.locations]
        for end in range(1, len(visits) + 1):
            queries.append(tuple(visits[max(0, end - 5) : end]))
    rng.shuffle(queries)
    return str(path), queries
