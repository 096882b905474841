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
also re-exported for callers that need the knobs. Every name loads its
module on first access (:mod:`repro._lazy`), so ``import repro`` is cheap
and a serving process never imports the training stack.

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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Exported name -> the module that defines it, in ``__all__`` order.
_EXPORTS = {
    # facade (repro.api): the stable surface
    "train": "repro.api",
    "load": "repro.api",
    "evaluate": "repro.api",
    "serve": "repro.api",
    "ServingConfig": "repro.serving.api",
    "TrainedModel": "repro.api",
    # observability (also part of the stable surface)
    "Tracer": "repro.observability.tracing",
    "MetricsRegistry": "repro.observability.metrics",
    "Observability": "repro.observability.hooks",
    "Observer": "repro.observability.observer",
    "with_observability": "repro.observability.hooks",
    # exceptions
    "ReproError": "repro.exceptions",
    "ConfigError": "repro.exceptions",
    "DataError": "repro.exceptions",
    "ExecutorError": "repro.exceptions",
    "PrivacyBudgetExceeded": "repro.exceptions",
    "NotFittedError": "repro.exceptions",
    "ServingError": "repro.exceptions",
    "VocabularyError": "repro.exceptions",
    # types
    "CheckIn": "repro.types",
    "Trajectory": "repro.types",
    # core
    "PLPConfig": "repro.core.config",
    "PrivateLocationPredictor": "repro.core.trainer",
    "UserLevelDPSGD": "repro.core.dpsgd",
    "NonPrivateTrainer": "repro.core.nonprivate",
    # engine
    "TrainingEngine": "repro.core.engine.engine",
    "BucketExecutor": "repro.core.engine.executors",
    "SerialExecutor": "repro.core.engine.executors",
    "ShardedExecutor": "repro.core.engine.executors",
    # data
    "CheckinDataset": "repro.data.checkins",
    "SyntheticConfig": "repro.data.synthetic",
    "TOKYO_BBOX": "repro.data.synthetic",
    "generate_checkins": "repro.data.synthetic",
    "load_foursquare_tsv": "repro.data.foursquare",
    "paper_preprocessing": "repro.data.preprocessing",
    "holdout_users_split": "repro.data.splitting",
    "sessionize_dataset": "repro.data.splitting",
    # eval
    "LeaveOneOutEvaluator": "repro.eval.evaluator",
    "hit_rate_at_k": "repro.eval.metrics",
    "paired_t_test": "repro.eval.stats",
    # models
    "SkipGramModel": "repro.models.skipgram",
    "LocationVocabulary": "repro.models.vocabulary",
    "EmbeddingMatrix": "repro.models.embeddings",
    "NextLocationRecommender": "repro.models.recommender",
    # privacy
    "GaussianMechanism": "repro.privacy.mechanisms",
    "MomentsAccountant": "repro.privacy.accountant.moments",
    "PrivacyLedger": "repro.privacy.accountant.ledger",
    "compute_epsilon": "repro.privacy.accountant.rdp",
    "calibrate_noise_multiplier": "repro.privacy.accountant.calibration",
    "max_steps_for_budget": "repro.privacy.accountant.calibration",
    # extensions
    "MembershipInferenceAttack": "repro.attacks.membership",
    "ExperimentRunner": "repro.experiments.runner",
    "SweepSpec": "repro.experiments.runner",
    "save_deployable_model": "repro.models.serialization",
    "load_deployable_model": "repro.models.serialization",
    "load_recommender": "repro.models.serialization",
    "save_training_checkpoint": "repro.models.serialization",
    "load_training_checkpoint": "repro.models.serialization",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
