"""Observer/callback layer of the training engine.

An :class:`~repro.observability.Observer` is notified around every
Algorithm 1 step: ``on_step_start`` before the stage pipeline runs,
``on_bucket_done`` for each gathered bucket update, ``on_step_end`` with
the completed :class:`~repro.core.engine.stages.StepResult`, and
``on_stop`` once after the run ends (after any rollback). Observers carry
all cross-cutting concerns — history recording, stop conditions,
evaluation scheduling, metrics export, checkpointing — keeping the engine
loop itself pure orchestration.

Stop conditions call :meth:`EngineContext.request_stop`; the first
requested reason wins, so observer registration order is the stop-priority
order (the trainer registers the budget stop before the max-steps stop,
preserving the legacy tie-break on a step that triggers both).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.history import StepRecord, TrainingHistory
from repro.observability.observer import Observer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.bucket import BucketUpdate
    from repro.core.engine.engine import EngineContext
    from repro.core.engine.stages import StepResult

class HistoryObserver(Observer):
    """Records one :class:`StepRecord` per step into a training history.

    Records unconditionally — including the budget-crossing step that is
    subsequently rolled back, matching Algorithm 1's ledger semantics (the
    crossing step's cost is spent even though its update is discarded).
    """

    def __init__(self, history: TrainingHistory) -> None:
        self.history = history

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        self.history.record_step(
            StepRecord(
                step=result.step,
                mean_loss=result.local_train.mean_loss,
                epsilon_spent=result.account.epsilon_spent,
                num_sampled_users=len(result.sample.users),
                num_buckets=result.group.num_buckets,
                mean_unclipped_norm=result.local_train.mean_unclipped_norm,
                wall_time_seconds=result.wall_time_seconds,
            )
        )

    def on_stop(self, context: "EngineContext", reason: str) -> None:
        self.history.stop_reason = reason


class BudgetStopObserver(Observer):
    """Stops (with rollback) when the ledger reaches the epsilon budget.

    Implements lines 12-13 of Algorithm 1: the crossing step is accounted
    but its update is rolled back, returning ``theta_{t-1}``. Steps with
    ``sigma = 0`` have infinite per-step cost and are exempt — such
    (non-private) runs are bounded by ``max_steps`` instead.
    """

    def __init__(self, epsilon: float) -> None:
        self.epsilon = float(epsilon)

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        if result.noise.sigma > 0.0 and result.account.epsilon_spent >= self.epsilon:
            context.request_stop("budget_exhausted", rollback=True)


class MaxStepsObserver(Observer):
    """Stops after a fixed number of steps.

    Args:
        max_steps: the step count to stop at.
        reason: stop reason to report ("max_steps"; the non-private trainer
            uses "epochs_completed").
    """

    def __init__(self, max_steps: int, reason: str = "max_steps") -> None:
        self.max_steps = int(max_steps)
        self.reason = reason

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        if result.step >= self.max_steps:
            context.request_stop(self.reason)


class EvalObserver(Observer):
    """Runs the user's evaluation callback on the configured cadence.

    In-loop evaluation is skipped on a step that requested a stop (the
    final state is evaluated in ``on_stop`` instead, after any rollback),
    so the recorded metrics always describe parameters the caller actually
    receives. Register after the stop-condition observers.
    """

    def __init__(
        self,
        eval_fn: Callable,
        every: int,
        history: TrainingHistory,
    ) -> None:
        self.eval_fn = eval_fn
        self.every = int(every)
        self.history = history

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        if context.stop_requested:
            return
        if result.step % self.every == 0:
            self.history.record_evaluation(
                result.step, self.eval_fn(context.embeddings())
            )

    def on_stop(self, context: "EngineContext", reason: str) -> None:
        final_step = context.step
        if final_step == 0:
            return
        if any(record.step == final_step for record in self.history.evaluations):
            return
        self.history.record_evaluation(
            final_step, self.eval_fn(context.embeddings())
        )


class JsonlMetricsObserver(Observer):
    """Streams per-step metrics to a JSON-lines file.

    One ``{"event": "step", ...}`` object per completed step and a final
    ``{"event": "stop", ...}`` object; each line is flushed immediately so
    a long private run can be monitored with ``tail -f``.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._file = None

    def on_step_start(self, context: "EngineContext", step: int) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")

    def _emit(self, payload: dict) -> None:
        if self._file is None:  # pragma: no cover - stop without any step
            return
        self._file.write(json.dumps(payload) + "\n")
        self._file.flush()

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        self._emit(
            {
                "event": "step",
                "step": result.step,
                "mean_loss": result.local_train.mean_loss,
                "epsilon_spent": result.account.epsilon_spent,
                "num_sampled_users": len(result.sample.users),
                "num_buckets": result.group.num_buckets,
                "mean_unclipped_norm": result.local_train.mean_unclipped_norm,
                "noise_stddev": result.noise.noise_stddev,
                "wall_time_seconds": result.wall_time_seconds,
            }
        )

    def on_stop(self, context: "EngineContext", reason: str) -> None:
        self._emit({"event": "stop", "reason": reason, "steps": context.step})
        if self._file is not None:
            self._file.close()
            self._file = None


class CheckpointObserver(Observer):
    """Periodically saves a checkpoint: a snapshot of theta and the ledger.

    Saves every ``every`` steps and once more at stop (after any rollback,
    so the final checkpoint holds exactly the parameters the caller gets).
    The artifact is written by
    :func:`repro.models.serialization.save_training_checkpoint`.
    """

    def __init__(self, path: "str | Path", every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = int(every)

    def _save(self, context: "EngineContext", step: int) -> None:
        from repro.models.serialization import save_training_checkpoint

        save_training_checkpoint(
            self.path, context.model.params, step=step, ledger=context.ledger
        )

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        if result.step % self.every == 0:
            self._save(context, result.step)

    def on_stop(self, context: "EngineContext", reason: str) -> None:
        if context.step:
            self._save(context, context.step)
