"""The stable high-level facade of the reproduction.

Four names cover the end-to-end workflow and are guaranteed to stay
stable across internal refactors::

    import repro

    model = repro.train(repro.PLPConfig(epsilon=2.0), dataset, rng=7)
    model.save("model.npz")

    model = repro.load("model.npz")
    model.recommend([17, 42, 8], top_k=10)
    model.recommend_batch([[17, 42], [8]], top_k=10)

    result = repro.evaluate(model, holdout)
    print(result.summary())

Observability is part of the facade: build a bundle with
:func:`with_observability` and pass it to :func:`train` / :func:`evaluate`
to collect spans and metrics (per-stage wall time included) without
changing any result::

    obs = repro.with_observability(trace_jsonl="trace.jsonl")
    model = repro.train(config, dataset, with_observability=obs)
    print(obs.metrics.render_prometheus())

Everything underneath — the training engine, the serving stack, the
scoring kernels — may move; code written against this module keeps
working. The facade is re-exported from the package root, so
``repro.train`` / ``repro.load`` / ``repro.evaluate`` / ``repro.TrainedModel``
are the canonical spellings (plus ``repro.Tracer``,
``repro.MetricsRegistry``, ``repro.Observability``,
``repro.with_observability`` for telemetry).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import ConfigError
from repro.models.embeddings import EmbeddingMatrix
from repro.models.recommender import NextLocationRecommender
from repro.models.serialization import load_deployable_model, save_deployable_model
from repro.models.vocabulary import LocationVocabulary

if TYPE_CHECKING:
    from repro.core.config import PLPConfig
    from repro.data.checkins import CheckinDataset
    from repro.data.store import CheckinStore
    from repro.eval.evaluator import EvaluationResult
    from repro.observability.hooks import Observability
    from repro.serving.api import ServingConfig

_METHODS = ("plp", "dpsgd", "nonprivate")

@dataclass(slots=True)
class TrainedModel:
    """A trained (or loaded) next-location model: the facade's currency.

    Wraps the deployable state — normalized embeddings, vocabulary,
    privacy-audit metadata — plus, for freshly trained models, the
    training history. Prediction goes through a lazily built
    :class:`~repro.models.recommender.NextLocationRecommender`.

    Attributes:
        embeddings: the unit-normalized location embedding matrix.
        vocabulary: the POI-id <-> token mapping.
        privacy: audit metadata (mechanism, epsilon spent, ...).
        history: the training history, ``None`` for loaded artifacts.
    """

    embeddings: EmbeddingMatrix
    vocabulary: LocationVocabulary
    privacy: dict = field(default_factory=dict)
    history: object | None = None
    _recommender: NextLocationRecommender | None = None

    def recommender(
        self, exclude_input: bool = False, with_fallback: bool = False
    ) -> NextLocationRecommender:
        """A recommender over this model's embeddings (fresh instance)."""
        fallback = None
        if with_fallback:
            from repro.baselines.popularity import popularity_prior

            fallback = popularity_prior(self.vocabulary)
        return NextLocationRecommender(
            self.embeddings,
            vocabulary=self.vocabulary,
            exclude_input=exclude_input,
            fallback_scores=fallback,
        )

    def _default_recommender(self) -> NextLocationRecommender:
        if self._recommender is None:
            self._recommender = self.recommender()
        return self._recommender

    def recommend(self, recent: Sequence, top_k: int = 10) -> list[tuple]:
        """Top-K ``(location, score)`` for one query of recent check-ins."""
        return self._default_recommender().recommend(recent, top_k=top_k)

    def recommend_batch(
        self, queries: Sequence[Sequence], top_k: int = 10, mode: str = "exact"
    ) -> list[list[tuple]]:
        """Top-K lists for many queries in one vectorized pass.

        Row ``i`` equals ``self.recommend(queries[i], top_k)`` exactly in
        the default ``"exact"`` mode; ``"fast"`` trades bit-identity for
        float32 throughput (the serving default).
        """
        return self._default_recommender().recommend_batch(
            queries, top_k=top_k, mode=mode
        )

    def save(
        self, path: str | Path, include_counts: bool = False
    ) -> "TrainedModel":
        """Write the deployable ``.npz`` artifact; returns ``self``.

        ``include_counts`` additionally stores the raw visit counts that
        power the serving popularity fallback — opt-in because counts,
        unlike the embeddings, carry no DP guarantee (``docs/serving.md``).
        """
        save_deployable_model(
            path,
            self.embeddings,
            self.vocabulary,
            privacy_metadata=self.privacy,
            include_counts=include_counts,
        )
        return self


def open_corpus(source: CheckinDataset | CheckinStore | str | Path) -> CheckinStore:
    """:func:`repro.data.open_corpus`, imported on first use.

    Loading or serving an artifact never reads a corpus, so the data
    layer stays out of processes that only do that.
    """
    from repro.data.store import open_corpus as open_store

    return open_store(source)


def train(
    config: PLPConfig | dict | None = None,
    dataset: "CheckinDataset | CheckinStore | str | Path | None" = None,
    method: str = "plp",
    rng: int | object = 7,
    epochs: int = 5,
    with_observability: "Observability | None" = None,
    **engine_options,
) -> TrainedModel:
    """Train a next-location model and return it as a :class:`TrainedModel`.

    Args:
        config: a :class:`PLPConfig`, a partial field dict (run through
            :meth:`PLPConfig.from_dict`), or ``None`` for paper defaults.
        dataset: the training corpus in any :func:`repro.data.open_corpus`
            spelling — an in-memory :class:`CheckinDataset`, any
            :class:`~repro.data.CheckinStore` (including the memory-mapped
            sharded store for out-of-core training), or a path to a CSV
            file / sharded-store directory. ``None`` trains on a fresh
            synthetic workload (paper-preprocessed). The corpus provenance
            is recorded under ``privacy["corpus"]`` in the artifact
            metadata.
        method: ``"plp"`` (Algorithm 1, default), ``"dpsgd"`` (user-level
            DP-SGD baseline), or ``"nonprivate"``.
        rng: seed or ``numpy.random.Generator`` for determinism.
        epochs: data epochs for the non-private trainer (ignored by the
            private methods, which stop on budget).
        with_observability: optional :class:`Observability` bundle (build
            with :func:`with_observability`); the engine emits per-stage
            spans and ``repro_engine_*`` metrics into it. Attaching one
            never changes the trained model or the ledger.
        **engine_options: forwarded to the trainer — ``executor``
            (``"serial"`` or the process pool ``"sharded"``), ``workers``,
            ``observers``.
    """
    from repro.core.config import PLPConfig
    from repro.data.checkins import CheckinDataset

    if method not in _METHODS:
        raise ConfigError(f"method must be one of {_METHODS}, got {method!r}")
    if config is None:
        config = PLPConfig()
    elif isinstance(config, dict):
        config = PLPConfig.from_dict(config)
    elif not isinstance(config, PLPConfig):
        raise ConfigError(
            f"config must be a PLPConfig, dict, or None, got {type(config).__name__}"
        )
    if dataset is None:
        from repro.data.preprocessing import paper_preprocessing
        from repro.data.synthetic import SyntheticConfig, generate_checkins

        dataset = CheckinDataset(
            paper_preprocessing(generate_checkins(SyntheticConfig(), rng=rng))
        )
    if isinstance(dataset, Path):
        dataset = str(dataset)
    corpus = open_corpus(dataset)

    if method == "nonprivate":
        from repro.core.nonprivate import NonPrivateTrainer

        trainer = NonPrivateTrainer(
            embedding_dim=config.embedding_dim,
            num_negatives=config.num_negatives,
            learning_rate=config.learning_rate,
            backend=config.backend,
            rng=rng,
            observability=with_observability,
            **engine_options,
        )
        history = trainer.fit(corpus, epochs=epochs)
        privacy: dict = {"mechanism": "none", "epsilon": "inf"}
    else:
        if method == "dpsgd":
            from repro.core.dpsgd import UserLevelDPSGD as trainer_cls
        else:
            from repro.core.trainer import PrivateLocationPredictor as trainer_cls
        trainer = trainer_cls(
            config, rng=rng, observability=with_observability, **engine_options
        )
        history = trainer.fit(corpus)
        privacy = {
            "mechanism": method,
            "epsilon": history.final_epsilon,
            "delta": config.delta,
            "steps": len(history),
        }
    privacy["corpus"] = corpus.describe()
    return TrainedModel(
        embeddings=trainer.embeddings(),
        vocabulary=trainer.vocabulary,
        privacy=privacy,
        history=history,
    )


def load(path: str | Path) -> TrainedModel:
    """Load a deployable ``.npz`` artifact into a :class:`TrainedModel`."""
    embeddings, vocabulary, privacy = load_deployable_model(path)
    return TrainedModel(
        embeddings=embeddings, vocabulary=vocabulary, privacy=privacy
    )


def serve(
    config: "ServingConfig | None" = None,
    with_observability: "Observability | None" = None,
    **overrides,
) -> None:
    """Serve models over HTTP until interrupted (``repro serve``).

    The canonical spelling is one :class:`ServingConfig` value describing
    the whole deployment::

        repro.serve(repro.ServingConfig(
            artifacts={"sf": "sf.npz", "nyc": "nyc.npz"},
            default_model="sf",
            ann=True,
            max_queue=2048,
        ))

    Requests are answered by the asyncio front end
    (:mod:`repro.serving.asgi`): bounded queue, 503 + ``Retry-After``
    load shedding, micro-batched scoring, and per-model metrics.

    Args:
        config: the deployment config; one artifact is
            ``ServingConfig(artifacts={"default": path})``.
        with_observability: optional :class:`Observability` bundle backing
            the serving metrics and spans.
        **overrides: individual :class:`ServingConfig` fields, applied on
            top of ``config``.

    Raises:
        ConfigError: unknown override field or invalid config.
    """
    from repro.serving.api import ServingConfig
    from repro.serving.asgi import serve as _serve

    if config is None:
        config = ServingConfig()
    elif not isinstance(config, ServingConfig):
        raise ConfigError(
            f"config must be a ServingConfig, got {type(config).__name__}"
        )
    if overrides:
        try:
            config = replace(config, **overrides)
        except TypeError as error:
            raise ConfigError(f"unknown serving option: {error}") from error
    _serve(config, observability=with_observability)


def evaluate(
    model,
    dataset,
    k_values: Sequence[int] = (5, 10, 20),
    input_scope: str = "session",
    with_observability: "Observability | None" = None,
) -> EvaluationResult:
    """Leave-one-out evaluation of a model on held-out data.

    Args:
        model: a :class:`TrainedModel`, a recommender (anything with
            ``score_all``), or a raw :class:`EmbeddingMatrix`.
        dataset: held-out trajectories, a :class:`CheckinDataset` to
            sessionize first, or any other :func:`repro.data.open_corpus`
            spelling (store / path) — stores are materialized in memory
            for evaluation.
        k_values / input_scope: forwarded to
            :class:`~repro.eval.evaluator.LeaveOneOutEvaluator`.
        with_observability: optional :class:`Observability` bundle; the
            run feeds ``repro_eval_*`` latency histograms into it.
    """
    from repro.data.checkins import CheckinDataset
    from repro.data.splitting import sessionize_dataset
    from repro.data.store import CheckinStore
    from repro.eval.evaluator import LeaveOneOutEvaluator

    if isinstance(dataset, (str, Path, CheckinStore)):
        dataset = open_corpus(
            str(dataset) if isinstance(dataset, Path) else dataset
        ).to_dataset()
    if isinstance(dataset, CheckinDataset):
        trajectories = sessionize_dataset(dataset)
    else:
        trajectories = dataset
    if isinstance(model, TrainedModel):
        recommender = model._default_recommender()
    elif isinstance(model, EmbeddingMatrix):
        recommender = NextLocationRecommender(model)
    elif callable(getattr(model, "score_all", None)):
        recommender = model
    else:
        raise ConfigError(
            "model must be a TrainedModel, EmbeddingMatrix, or recommender, "
            f"got {type(model).__name__}"
        )
    evaluator = LeaveOneOutEvaluator(
        trajectories, k_values=k_values, input_scope=input_scope
    )
    return evaluator.evaluate(recommender, observability=with_observability)
