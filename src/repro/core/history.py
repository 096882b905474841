"""Training history: per-step and per-evaluation records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Diagnostics of one Algorithm 1 step."""

    step: int
    mean_loss: float
    epsilon_spent: float
    num_sampled_users: int
    num_buckets: int
    mean_unclipped_norm: float
    wall_time_seconds: float


@dataclass(frozen=True, slots=True)
class EvalRecord:
    """One evaluation snapshot taken during training."""

    step: int
    metrics: dict[str, float]


@dataclass(slots=True)
class TrainingHistory:
    """Accumulated step and evaluation records of one training run."""

    steps: list[StepRecord] = field(default_factory=list)
    evaluations: list[EvalRecord] = field(default_factory=list)
    stop_reason: str = ""

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self.steps)

    def record_step(self, record: StepRecord) -> None:
        """Append one step record."""
        self.steps.append(record)

    def record_evaluation(self, step: int, metrics: dict[str, float]) -> None:
        """Append one evaluation snapshot."""
        self.evaluations.append(EvalRecord(step=step, metrics=dict(metrics)))

    @property
    def final_epsilon(self) -> float:
        """Privacy budget consumed by the end of training."""
        return self.steps[-1].epsilon_spent if self.steps else 0.0

    def losses(self) -> list[float]:
        """Per-step mean losses."""
        return [record.mean_loss for record in self.steps]

    def epsilons(self) -> list[float]:
        """Per-step cumulative epsilon values."""
        return [record.epsilon_spent for record in self.steps]
