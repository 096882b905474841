"""repro: Differentially-Private Next-Location Prediction with Neural Networks.

A from-scratch reproduction of Ahuja, Ghinita & Shahabi (EDBT 2020). The
stable facade (:mod:`repro.api`) covers the end-to-end workflow in four
names::

    import repro

    checkins = repro.paper_preprocessing(
        repro.generate_checkins(repro.SyntheticConfig(), rng=7)
    )
    train, holdout = repro.holdout_users_split(
        repro.CheckinDataset(checkins), 30, rng=7
    )
    model = repro.train(repro.PLPConfig(epsilon=2.0), train, rng=7)
    model.save("model.npz")
    print(repro.evaluate(model, holdout).summary())

    model = repro.load("model.npz")
    model.recommend_batch([[17, 42], [8]], top_k=10)

The lower-level classes (trainers, engine, evaluator, serving stack) are
also re-exported for callers that need the knobs.

Subpackages:
    - :mod:`repro.core` — Algorithm 1 (PLP) and the paper's baselines.
    - :mod:`repro.privacy` — mechanisms, clipping, moments accountant.
    - :mod:`repro.models` — the skip-gram location model.
    - :mod:`repro.nn` — NumPy neural-network substrate.
    - :mod:`repro.data` — synthetic/real check-in data and preprocessing.
    - :mod:`repro.eval` — leave-one-out Hit-Rate evaluation.
    - :mod:`repro.baselines` — popularity / Markov / MF recommenders.
    - :mod:`repro.geoind` — geo-indistinguishability extension.
    - :mod:`repro.serving` — batched inference and the ``repro serve`` HTTP
      layer.
    - :mod:`repro.observability` — unified tracing and metrics across
      training, serving, and evaluation.
"""

from repro.api import (
    MetricsRegistry,
    Observability,
    ServingConfig,
    TrainedModel,
    Tracer,
    evaluate,
    load,
    serve,
    train,
    with_observability,
)
from repro.observability import Observer
from repro.exceptions import (
    ConfigError,
    DataError,
    ExecutorError,
    NotFittedError,
    PrivacyBudgetExceeded,
    ReproError,
    ServingError,
    VocabularyError,
)
from repro.types import CheckIn, Trajectory
from repro.core import (
    BucketExecutor,
    NonPrivateTrainer,
    PLPConfig,
    PrivateLocationPredictor,
    SerialExecutor,
    ShardedExecutor,
    TrainingEngine,
    UserLevelDPSGD,
)
from repro.data import (
    CheckinDataset,
    SyntheticConfig,
    TOKYO_BBOX,
    generate_checkins,
    holdout_users_split,
    load_foursquare_tsv,
    paper_preprocessing,
    sessionize_dataset,
)
from repro.eval import LeaveOneOutEvaluator, hit_rate_at_k, paired_t_test
from repro.models import (
    EmbeddingMatrix,
    LocationVocabulary,
    NextLocationRecommender,
    SkipGramModel,
)
from repro.privacy import (
    GaussianMechanism,
    MomentsAccountant,
    PrivacyLedger,
    calibrate_noise_multiplier,
    compute_epsilon,
    max_steps_for_budget,
)
from repro.attacks import MembershipInferenceAttack
from repro.experiments import ExperimentRunner, SweepSpec
from repro.models.serialization import (
    load_deployable_model,
    load_recommender,
    load_training_checkpoint,
    save_deployable_model,
    save_training_checkpoint,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade (repro.api): the stable surface
    "train",
    "load",
    "evaluate",
    "serve",
    "ServingConfig",
    "TrainedModel",
    # observability (also part of the stable surface)
    "Tracer",
    "MetricsRegistry",
    "Observability",
    "Observer",
    "with_observability",
    # exceptions
    "ReproError",
    "ConfigError",
    "DataError",
    "ExecutorError",
    "PrivacyBudgetExceeded",
    "NotFittedError",
    "ServingError",
    "VocabularyError",
    # types
    "CheckIn",
    "Trajectory",
    # core
    "PLPConfig",
    "PrivateLocationPredictor",
    "UserLevelDPSGD",
    "NonPrivateTrainer",
    # engine
    "TrainingEngine",
    "BucketExecutor",
    "SerialExecutor",
    "ShardedExecutor",
    # data
    "CheckinDataset",
    "SyntheticConfig",
    "TOKYO_BBOX",
    "generate_checkins",
    "load_foursquare_tsv",
    "paper_preprocessing",
    "holdout_users_split",
    "sessionize_dataset",
    # eval
    "LeaveOneOutEvaluator",
    "hit_rate_at_k",
    "paired_t_test",
    # models
    "SkipGramModel",
    "LocationVocabulary",
    "EmbeddingMatrix",
    "NextLocationRecommender",
    # privacy
    "GaussianMechanism",
    "MomentsAccountant",
    "PrivacyLedger",
    "compute_epsilon",
    "calibrate_noise_multiplier",
    "max_steps_for_budget",
    # extensions
    "MembershipInferenceAttack",
    "ExperimentRunner",
    "SweepSpec",
    "save_deployable_model",
    "load_deployable_model",
    "load_recommender",
    "save_training_checkpoint",
    "load_training_checkpoint",
]
