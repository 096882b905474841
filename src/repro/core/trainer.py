"""Private Location Prediction: Algorithm 1 of the paper.

Each step:

1. Poisson-sample users with probability ``q`` (line 5).
2. Group the sampled users' data into buckets of ``lambda`` users (line 6);
   with split factor ``omega > 1``, a user's data spreads over ``omega``
   buckets (Section 4.2, Case 2).
3. For each bucket, run local SGD from the current model and clip the
   resulting model delta to l2 norm ``C`` (lines 7-8, 15-22).
4. Sum the clipped deltas and add Gaussian noise calibrated to the
   user-level sensitivity ``omega * C``: ``N(0, sigma^2 omega^2 C^2 I)``
   (line 9).
5. Divide by the number of buckets and apply the result as the model
   update — additively (line 10) or through the DP-Adam rule the paper
   uses in its experiments (Section 5.1).
6. Track ``(C, sigma)`` in the privacy ledger; stop — rolling back the
   final update — once ``cumulative_budget_spent() >= epsilon``
   (lines 11-13).

The mechanics live in :mod:`repro.core.engine`: the step math in
:class:`~repro.core.engine.StepPipeline`, bucket execution behind a
pluggable :class:`~repro.core.engine.BucketExecutor` (serial or a
process pool, bit-identical for the same seed), and history/stop/eval
policy in :class:`repro.observability.Observer` instances.
:meth:`PrivateLocationPredictor.fit` only assembles and runs them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core._pairs import build_pair_source
from repro.core.config import PLPConfig
from repro.core.engine import (
    BucketExecutor,
    BudgetStopObserver,
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
from repro.core.schedules import NoiseSchedule
from repro.core.history import TrainingHistory
from repro.data.checkins import CheckinDataset
from repro.data.store import CheckinStore, open_corpus
from repro.exceptions import ConfigError, NotFittedError
from repro.models.embeddings import EmbeddingMatrix
from repro.models.recommender import NextLocationRecommender
from repro.models.skipgram import SkipGramModel
from repro.models.vocabulary import LocationVocabulary
from repro.privacy.accountant import PrivacyLedger
from repro.rng import RngLike, ensure_rng

EvalFn = Callable[[EmbeddingMatrix], dict[str, float]]


class PrivateLocationPredictor:
    """User-level differentially private skip-gram trainer (PLP).

    Args:
        config: all Algorithm 1 hyper-parameters.
        rng: seed or generator; drives initialization, sampling, grouping,
            batching, negative sampling, and the DP noise. Training results
            depend only on this seed (and the data/config), not on the
            executor choice.
        noise_schedule: optional per-step sigma schedule (default: the
            config's constant ``noise_multiplier``).
        executor: bucket execution backend — ``"serial"`` (default),
            ``"sharded"`` (the process pool: workers resolve pairs from a
            shared corpus source when ``split_factor`` is 1 and the
            source has a picklable spec, otherwise receive materialized
            pairs), or a ready :class:`~repro.core.engine.BucketExecutor`
            instance (kept open across ``fit`` calls; the caller closes
            it).
        workers: worker-process count for the process pool (default: all
            cores).
        observers: extra :class:`~repro.observability.Observer` instances
            notified on every step (e.g. metrics/checkpoint observers);
            appended after the built-in history/stop/eval observers.
        observability: optional
            :class:`~repro.observability.Observability` bundle; the engine
            emits per-stage spans and ``repro_engine_*`` metrics into it.
            Purely passive — attaching one never changes the trained model
            or the ledger.

    Attributes (after :meth:`fit`):
        model: the trained :class:`SkipGramModel`.
        vocabulary: POI-id <-> token mapping of the training data.
        history: per-step diagnostics and evaluation snapshots.
        ledger: the privacy ledger with the full step record.
    """

    def __init__(
        self,
        config: PLPConfig | None = None,
        rng: RngLike = None,
        noise_schedule: "NoiseSchedule | None" = None,
        executor: "str | BucketExecutor" = "serial",
        workers: int | None = None,
        observers: Sequence[Observer] = (),
        observability: "Observability | None" = None,
    ) -> None:
        self.config = config or PLPConfig()
        self._rng = ensure_rng(rng)
        self.noise_schedule = noise_schedule
        self.executor = executor
        self.workers = workers
        self.extra_observers = list(observers)
        self.observability = observability
        self.model: SkipGramModel | None = None
        self.vocabulary: LocationVocabulary | None = None
        self.history = TrainingHistory()
        self.ledger: PrivacyLedger | None = None
        #: Provenance of the last fit's corpus (``store.describe()``),
        #: recorded into artifact metadata by the API facade.
        self.corpus_source: dict[str, object] | None = None

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        dataset: "CheckinDataset | CheckinStore | str",
        eval_fn: EvalFn | None = None,
    ) -> TrainingHistory:
        """Run Algorithm 1 until the privacy budget (or ``max_steps``) is hit.

        Args:
            dataset: the training corpus in any
                :func:`repro.data.open_corpus` spelling — an in-memory
                :class:`~repro.data.CheckinDataset`, any
                :class:`~repro.data.CheckinStore` (including the
                memory-mapped sharded store for out-of-core training), or
                a path to a CSV file / sharded-store directory.
            eval_fn: optional callback receiving the current (normalized)
                embeddings every ``config.eval_every`` steps; its returned
                metrics are stored in the history.

        Returns:
            The populated :class:`TrainingHistory`.

        Note:
            Line 9 divides the noisy sum by the *realized* bucket count
            ``|H|``, exactly as written in the paper. (McMahan et al.'s
            variant divides by the fixed expected count ``q*N/lambda``;
            the realized count is itself mildly data-dependent, a nuance
            the paper inherits from its federated-averaging lineage.)
        """
        config = self.config
        if config.noise_multiplier == 0.0 and config.max_steps is None:
            raise ConfigError(
                "noise_multiplier=0 provides no privacy and an unbounded budget; "
                "set max_steps to bound such a (non-private) run"
            )
        store = open_corpus(dataset)
        self.corpus_source = store.describe()
        self.vocabulary, pair_source = build_pair_source(
            store, config.window, config.sessionize_training
        )
        self.model = SkipGramModel(
            num_locations=self.vocabulary.size,
            embedding_dim=config.embedding_dim,
            num_negatives=config.num_negatives,
            loss=config.loss,
            negative_sharing=config.negative_sharing,
            rng=self._rng,
            backend=config.backend,
        )
        self.ledger = PrivacyLedger(
            delta=config.delta, sampling_probability=config.sampling_probability
        )
        self.history = TrainingHistory()

        pipeline = StepPipeline(
            config, self.model, pair_source, root=self._rng, ledger=self.ledger
        )
        # Registration order is stop priority: on a step that both crosses
        # the budget and reaches max_steps, the budget stop (with rollback)
        # wins, as in Algorithm 1.
        observers: list[Observer] = [
            HistoryObserver(self.history),
            BudgetStopObserver(config.epsilon),
        ]
        if config.max_steps is not None:
            observers.append(MaxStepsObserver(config.max_steps))
        if eval_fn is not None:
            observers.append(EvalObserver(eval_fn, config.eval_every, self.history))
        observers.extend(self.extra_observers)

        executor, owned = make_executor(self.executor, self.workers)
        try:
            TrainingEngine(
                pipeline,
                executor=executor,
                observers=observers,
                noise_schedule=self.noise_schedule,
                observability=self.observability,
            ).run()
        finally:
            if owned:
                executor.close()
        return self.history

    # -- inference ----------------------------------------------------------------

    def _require_fitted(self) -> SkipGramModel:
        if self.model is None:
            raise NotFittedError("call fit() before using the trained model")
        return self.model

    def embeddings(self) -> EmbeddingMatrix:
        """The trained, unit-normalized location embeddings."""
        model = self._require_fitted()
        return EmbeddingMatrix(model.params["W"])

    def recommender(self, exclude_input: bool = False) -> NextLocationRecommender:
        """A next-location recommender over the trained embeddings."""
        return NextLocationRecommender(
            self.embeddings(),
            vocabulary=self.vocabulary,
            exclude_input=exclude_input,
        )

    def epsilon_spent(self) -> float:
        """Privacy budget consumed so far (0 before training)."""
        return self.ledger.cumulative_budget_spent() if self.ledger else 0.0
