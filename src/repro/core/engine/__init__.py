"""Layered training engine for Algorithm 1.

Three layers, composed by the trainers in :mod:`repro.core`:

- **Stages** (:mod:`~repro.core.engine.stages`): Algorithm 1 as the
  explicit pipeline ``sample -> group -> local_train -> aggregate ->
  noise -> apply -> account``, each stage returning a typed result.
- **Executors** (:mod:`~repro.core.engine.executors`): pluggable bucket
  execution backends — the in-process :class:`SerialExecutor` and the
  process pool :class:`ShardedExecutor` (user ids + theta over the wire
  with pairs resolved worker-side when the source allows it, otherwise
  materialized pairs) — bit-identical for the same seed.
- **Observers** (:mod:`~repro.core.engine.observers`): callbacks carrying
  history recording, stop conditions, evaluation scheduling, JSONL
  metrics, and checkpointing. Their base class is the unified
  :class:`repro.observability.Observer` (re-exported here).

:class:`TrainingEngine` (:mod:`~repro.core.engine.engine`) wires the three
together; pass it an :class:`repro.observability.Observability` bundle for
per-stage spans and timing metrics.
"""

from repro.core.engine.engine import EngineContext, TrainingEngine
from repro.core.engine.executors import (
    BucketExecutor,
    BucketJob,
    LocalTrainSpec,
    SerialExecutor,
    ShardedExecutor,
    make_executor,
    run_bucket_chunk,
)
from repro.core.engine.observers import (
    BudgetStopObserver,
    CheckpointObserver,
    EvalObserver,
    HistoryObserver,
    JsonlMetricsObserver,
    MaxStepsObserver,
)
from repro.observability.observer import Observer
from repro.core.engine.stages import (
    AccountResult,
    AggregateResult,
    ApplyResult,
    GroupResult,
    LocalTrainResult,
    NoiseResult,
    SampleResult,
    StepPipeline,
    StepResult,
)

__all__ = [
    "TrainingEngine",
    "EngineContext",
    "StepPipeline",
    "StepResult",
    "SampleResult",
    "GroupResult",
    "LocalTrainResult",
    "AggregateResult",
    "NoiseResult",
    "ApplyResult",
    "AccountResult",
    "BucketExecutor",
    "SerialExecutor",
    "ShardedExecutor",
    "BucketJob",
    "LocalTrainSpec",
    "make_executor",
    "run_bucket_chunk",
    "Observer",
    "HistoryObserver",
    "BudgetStopObserver",
    "MaxStepsObserver",
    "EvalObserver",
    "JsonlMetricsObserver",
    "CheckpointObserver",
]
