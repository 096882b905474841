"""The paper's primary contribution: Private Location Prediction (PLP).

:class:`PrivateLocationPredictor` implements Algorithm 1 — user-level
(epsilon, delta)-DP training of the skip-gram location model with Poisson
user sampling, data grouping into buckets of ``lambda`` users, per-bucket
local SGD, per-layer clipping, Gaussian perturbation calibrated to the
bucket sensitivity (including the split factor ``omega``), and a privacy
ledger enforcing the budget stop.

The two baselines of Section 5.2 live here too: the non-private SGNS
trainer (:mod:`repro.core.nonprivate`) and user-level DP-SGD without
grouping (:mod:`repro.core.dpsgd`).
"""

from repro.core.config import PLPConfig
from repro.core.sampling import expected_sample_size, poisson_sample
from repro.core.grouping import (
    assign_random_buckets,
    assign_equal_frequency_buckets,
    build_bucket_arrays,
    group_data,
    split_pairs,
)
from repro.core.bucket import (
    BucketUpdate,
    model_update_from_bucket,
    model_updates_from_buckets,
)
from repro.core.history import EvalRecord, StepRecord, TrainingHistory
from repro.core.schedules import (
    ConstantSchedule,
    ExponentialDecaySchedule,
    LinearDecaySchedule,
    NoiseSchedule,
    StepDecaySchedule,
    make_schedule,
)
from repro.core.engine import (
    BucketExecutor,
    CheckpointObserver,
    JsonlMetricsObserver,
    ParallelExecutor,
    SerialExecutor,
    ShardedExecutor,
    StepObserver,
    StepPipeline,
    StepResult,
    TrainingEngine,
    make_executor,
)
from repro.core.trainer import PrivateLocationPredictor
from repro.core.nonprivate import NonPrivateTrainer
from repro.core.dpsgd import UserLevelDPSGD

__all__ = [
    "TrainingEngine",
    "StepPipeline",
    "StepResult",
    "BucketExecutor",
    "SerialExecutor",
    "ShardedExecutor",
    "ParallelExecutor",
    "make_executor",
    "StepObserver",
    "JsonlMetricsObserver",
    "CheckpointObserver",
    "PLPConfig",
    "poisson_sample",
    "expected_sample_size",
    "assign_random_buckets",
    "assign_equal_frequency_buckets",
    "build_bucket_arrays",
    "split_pairs",
    "group_data",
    "model_update_from_bucket",
    "model_updates_from_buckets",
    "BucketUpdate",
    "TrainingHistory",
    "StepRecord",
    "EvalRecord",
    "NoiseSchedule",
    "ConstantSchedule",
    "LinearDecaySchedule",
    "ExponentialDecaySchedule",
    "StepDecaySchedule",
    "make_schedule",
    "PrivateLocationPredictor",
    "NonPrivateTrainer",
    "UserLevelDPSGD",
]
