"""Non-private skip-gram training: baseline (i) of Section 5.2.

Standard SGNS training over the pooled training pairs — no sampling, no
clipping, no noise. Used to establish the accuracy ceiling (the paper's
non-private model reaches HR@10 = 29.5% on its data) and for the
hyper-parameter tuning of Figure 5.

Implemented as a degenerate run of the same training engine that powers
PLP: sampling probability 1 (every user every step), a single bucket
holding all users (``lambda = N``), an unbounded clip norm, ``sigma = 0``,
and no privacy ledger. One engine step is then exactly one local-SGD epoch
over the pooled pairs, and the additive server update installs the bucket
result as the new model. Sharing the engine means the non-private baseline
gets the executor and observer machinery for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core._pairs import build_training_data
from repro.core.config import PLPConfig
from repro.core.engine import (
    BucketExecutor,
    EvalObserver,
    HistoryObserver,
    MaxStepsObserver,
    StepPipeline,
    TrainingEngine,
    make_executor,
)
from repro.observability.observer import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.hooks import Observability
from repro.core.history import TrainingHistory
from repro.core.trainer import EvalFn
from repro.data.checkins import CheckinDataset
from repro.data.store import CheckinStore, open_corpus
from repro.exceptions import ConfigError, NotFittedError
from repro.models.embeddings import EmbeddingMatrix
from repro.models.recommender import NextLocationRecommender
from repro.models.skipgram import SkipGramModel
from repro.models.vocabulary import LocationVocabulary
from repro.rng import RngLike, ensure_rng


class NonPrivateTrainer:
    """Plain (epoch-based) SGNS trainer over location sequences.

    Args:
        embedding_dim: the paper's ``dim`` (default 50).
        num_negatives: the paper's ``neg`` (default 16).
        window: the paper's ``win`` (default 2).
        batch_size: the paper's ``b`` (default 32).
        learning_rate: the paper's ``eta`` (default 0.06).
        loss: candidate-sampling loss name.
        negative_sharing: "batch" (TF-style shared negatives) or "per_pair".
        backend: compute kernel backend (``"reference"``, ``"fast"``,
            ``"numba"``), as in :attr:`PLPConfig.backend <repro.core.config.PLPConfig>`.
        sessionize_training: expand windows within 6-hour sessions.
        rng: seed or generator.
        executor: bucket execution backend (``"serial"``, the process
            pool ``"sharded"``, or a
            :class:`~repro.core.engine.BucketExecutor`); with a single
            all-users bucket per epoch this mostly matters for API
            symmetry with the private trainers.
        workers: worker count for ``executor="sharded"``.
        observers: extra step observers (one engine step = one epoch).
    """

    def __init__(
        self,
        embedding_dim: int = 50,
        num_negatives: int = 16,
        window: int = 2,
        batch_size: int = 32,
        learning_rate: float = 0.06,
        loss: str = "sampled_softmax",
        negative_sharing: str = "batch",
        backend: str = "reference",
        sessionize_training: bool = True,
        rng: RngLike = None,
        executor: "str | BucketExecutor" = "serial",
        workers: int | None = None,
        observers: Sequence[Observer] = (),
        observability: "Observability | None" = None,
    ) -> None:
        if embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {embedding_dim}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
        self.embedding_dim = int(embedding_dim)
        self.num_negatives = int(num_negatives)
        self.window = int(window)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.loss = loss
        self.negative_sharing = negative_sharing
        self.backend = backend
        self.sessionize_training = bool(sessionize_training)
        self._rng = ensure_rng(rng)
        self.executor = executor
        self.workers = workers
        self.extra_observers = list(observers)
        self.observability = observability
        self.model: SkipGramModel | None = None
        self.vocabulary: LocationVocabulary | None = None
        self.history = TrainingHistory()

    def _degenerate_config(self, num_users: int, epochs: int, eval_every: int) -> PLPConfig:
        """Algorithm 1 hyper-parameters that collapse to plain SGNS epochs."""
        return PLPConfig(
            embedding_dim=self.embedding_dim,
            num_negatives=self.num_negatives,
            window=self.window,
            loss=self.loss,
            negative_sharing=self.negative_sharing,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            local_update="sgd",
            grouping_factor=max(1, num_users),  # one bucket holds everyone
            sampling_probability=1.0,  # every user, every step
            clip_bound=float("inf"),  # clipping never binds
            clipping="global",
            noise_multiplier=0.0,  # no perturbation
            epsilon=float("inf"),
            max_steps=epochs,
            sessionize_training=self.sessionize_training,
            eval_every=eval_every,
            backend=self.backend,
        )

    def fit(
        self,
        dataset: "CheckinDataset | CheckinStore | str",
        epochs: int = 20,
        eval_fn: EvalFn | None = None,
        eval_every_epochs: int = 5,
    ) -> TrainingHistory:
        """Train for a fixed number of epochs over all pooled pairs.

        Args:
            dataset: training users' check-ins, in any
                :func:`repro.data.open_corpus` spelling. Non-private
                training pools every user's pairs into a single bucket, so
                a disk-backed store is **materialized in memory** here; use
                the private trainers for out-of-core corpora.
            epochs: full passes over the pair set.
            eval_fn: optional embeddings -> metrics callback.
            eval_every_epochs: evaluation cadence.

        Returns:
            The populated training history (one step record per epoch).
        """
        if epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {epochs}")
        if eval_every_epochs < 1:
            raise ConfigError(f"eval_every_epochs must be >= 1, got {eval_every_epochs}")
        self.vocabulary, user_pairs = build_training_data(
            open_corpus(dataset).to_dataset(), self.window, self.sessionize_training
        )
        config = self._degenerate_config(len(user_pairs), epochs, eval_every_epochs)
        self.model = SkipGramModel(
            num_locations=self.vocabulary.size,
            embedding_dim=config.embedding_dim,
            num_negatives=config.num_negatives,
            loss=config.loss,
            negative_sharing=config.negative_sharing,
            rng=self._rng,
            backend=config.backend,
        )
        self.history = TrainingHistory()

        pipeline = StepPipeline(
            config, self.model, user_pairs, root=self._rng, ledger=None
        )
        observers: list[Observer] = [
            HistoryObserver(self.history),
            MaxStepsObserver(epochs, reason="epochs_completed"),
        ]
        if eval_fn is not None:
            observers.append(EvalObserver(eval_fn, eval_every_epochs, self.history))
        observers.extend(self.extra_observers)

        executor, owned = make_executor(self.executor, self.workers)
        try:
            TrainingEngine(
                pipeline,
                executor=executor,
                observers=observers,
                observability=self.observability,
            ).run()
        finally:
            if owned:
                executor.close()
        return self.history

    def embeddings(self) -> EmbeddingMatrix:
        """The trained, unit-normalized location embeddings."""
        if self.model is None:
            raise NotFittedError("call fit() before using the trained model")
        return EmbeddingMatrix(self.model.params["W"])

    def recommender(self, exclude_input: bool = False) -> NextLocationRecommender:
        """A next-location recommender over the trained embeddings."""
        return NextLocationRecommender(
            self.embeddings(),
            vocabulary=self.vocabulary,
            exclude_input=exclude_input,
        )
