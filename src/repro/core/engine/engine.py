"""The training engine: drives the stage pipeline until an observer stops it.

:class:`TrainingEngine` is pure orchestration. Per step it derives the
step's RNG sub-stream, runs the stage pipeline
(``sample -> group -> local_train -> aggregate -> noise -> apply ->
account``) through the configured :class:`BucketExecutor`, times the step,
and notifies observers. Observers own every policy decision: what to
record, when to evaluate, and when to stop (via
:meth:`EngineContext.request_stop`).

Observability: every step runs inside an ``engine.step`` span with one
child span per stage (``engine.stage.sample`` ... ``engine.stage.account``)
through one stage sequence. Without an attached
:class:`~repro.observability.Observability` bundle the handle is a
component-less one whose spans are no-ops; with one, the bundle records
the spans and its registry receives per-stage/per-bucket timing metrics
(``repro_engine_*``). Instrumentation is read-only and draw-free: a run
with observability attached is bit-identical to the same run without it.

Rollback: before applying an update, the engine asks the pipeline whether
this step's accounting could reach the budget
(:meth:`StepPipeline.budget_would_cross`, a draw-free ledger preview) and
requests a pre-apply parameter snapshot only then — the full-parameter
copy that a naive implementation pays every step happens on at most one
step per run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.engine.executors import BucketExecutor, SerialExecutor
from repro.core.engine.stages import StepPipeline, StepResult
from repro.core.schedules import NoiseSchedule
from repro.models.embeddings import EmbeddingMatrix
from repro.models.skipgram import EMBEDDING
from repro.observability.hooks import EngineMetrics, Observability
from repro.observability.observer import Observer
from repro.rng import derive

#: Stage names, in Algorithm 1 order, as used for spans and metric labels.
STAGE_NAMES = (
    "sample",
    "group",
    "local_train",
    "aggregate",
    "noise",
    "apply",
    "account",
)


class EngineContext:
    """Run state shared with observers.

    Attributes:
        config: the run's :class:`~repro.core.config.PLPConfig`.
        model: the model being trained.
        ledger: the privacy ledger (``None`` for non-private runs).
        step: index of the last started step (0 before the first).
        stop_reason: the winning stop reason, or ``None`` while running.
    """

    def __init__(self, pipeline: StepPipeline) -> None:
        self._pipeline = pipeline
        self.config = pipeline.config
        self.model = pipeline.model
        self.ledger = pipeline.ledger
        self.step = 0
        self.stop_reason: str | None = None
        self.stop_rollback = False

    @property
    def stop_requested(self) -> bool:
        """Whether some observer already requested a stop this run."""
        return self.stop_reason is not None

    def request_stop(self, reason: str, rollback: bool = False) -> None:
        """Request the run to stop after the current step.

        First reason wins: later requests (including their rollback flag)
        are ignored, so observer registration order defines stop priority.

        Args:
            reason: stop reason recorded in the history.
            rollback: roll the current step's update back before stopping
                (Algorithm 1 line 13). Only honored when the engine took a
                pre-apply snapshot this step, which it does exactly when
                the budget preview said the step could cross.
        """
        if self.stop_reason is None:
            self.stop_reason = reason
            self.stop_rollback = bool(rollback)

    def embeddings(self) -> EmbeddingMatrix:
        """Current (unit-normalized) location embeddings."""
        return EmbeddingMatrix(self.model.params[EMBEDDING])


class _StageClock:
    """Spans and times each stage of one step; the per-step metric payload.

    A stage timed more than once in a step (``account`` covers the budget
    preview before ``apply`` and the accounting after it) sums its parts.
    """

    __slots__ = ("seconds", "_obs", "_step")

    def __init__(self, obs: Observability, step: int) -> None:
        self.seconds: dict[str, float] = {}
        self._obs = obs
        self._step = step

    @contextmanager
    def stage(
        self, name: str, span: str | None = None, **attributes: Any
    ) -> Iterator[None]:
        """Run a block as stage ``name`` (span ``engine.stage.<name>``)."""
        with self._obs.span(
            span or f"engine.stage.{name}", step=self._step, **attributes
        ):
            started = time.perf_counter()
            yield
            elapsed = time.perf_counter() - started
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


class TrainingEngine:
    """Runs Algorithm 1 steps until an observer requests a stop.

    Args:
        pipeline: the stage pipeline (owns model, data, config, ledger).
        executor: bucket execution backend (default: serial).
        observers: notified in registration order at every hook; stop
            priority follows that order.
        noise_schedule: optional per-step sigma schedule; ``None`` uses the
            config's constant ``noise_multiplier``.
        observability: optional tracing/metrics bundle; attaching
            one never changes the training result (no RNG draws, no state
            mutation — wall-clock measurement only).
    """

    def __init__(
        self,
        pipeline: StepPipeline,
        executor: BucketExecutor | None = None,
        observers: Sequence[Observer] = (),
        noise_schedule: NoiseSchedule | None = None,
        observability: "Observability | None" = None,
    ) -> None:
        self.pipeline = pipeline
        self.executor = executor if executor is not None else SerialExecutor()
        self.observers = list(observers)
        self.noise_schedule = noise_schedule
        self.observability = observability

    def run(self) -> str:
        """Execute steps until a stop is requested; returns the stop reason."""
        pipeline = self.pipeline
        config = pipeline.config
        context = EngineContext(pipeline)
        # Without a bundle, a component-less handle: its spans are no-ops.
        obs = (
            self.observability
            if self.observability is not None
            else Observability()
        )
        # Pre-run handshake: the pipeline adapts its materialization mode
        # to the executor (and hands process pools their pair-source
        # spec); the executor gets the run's observability for per-shard
        # spans/metrics. Neither touches any RNG stream.
        pipeline.prepare_for(self.executor)
        self.executor.bind_observability(obs)
        engine_metrics = (
            EngineMetrics(obs.metrics) if obs.metrics is not None else None
        )
        while not context.stop_requested:
            step = context.step + 1
            context.step = step
            started = time.perf_counter()
            for observer in self.observers:
                observer.on_step_start(context, step)

            sigma = (
                self.noise_schedule.sigma_at(step)
                if self.noise_schedule is not None
                else config.noise_multiplier
            )
            # One derived stream per step, consumed in fixed stage order
            # (sample, group, noise); bucket streams are derived separately
            # inside local_train. Draw-free derivation makes step t's
            # randomness a pure function of (root seed, t).
            step_rng = derive(pipeline.root, step)

            clock = _StageClock(obs, step)
            with obs.span("engine.step", step=step):
                result = self._run_stages(
                    context, step, sigma, step_rng, started, clock
                )
            if engine_metrics is not None:
                engine_metrics.record_step(result, clock.seconds)
            for observer in self.observers:
                observer.on_step_end(context, result)

        if context.stop_rollback:
            pipeline.rollback()
        reason = context.stop_reason or ""
        for observer in self.observers:
            observer.on_stop(context, reason)
        return reason

    def _run_stages(
        self,
        context: EngineContext,
        step: int,
        sigma: float,
        step_rng: np.random.Generator,
        started: float,
        clock: _StageClock,
    ) -> StepResult:
        """One step's stage sequence, each stage spanned and timed.

        The spans and clock only measure wall time: they touch neither the
        RNG streams nor any training state.
        """
        pipeline = self.pipeline
        with clock.stage("sample"):
            sample = pipeline.sample(step_rng)
        with clock.stage("group"):
            group = pipeline.group(sample, step_rng)
        with clock.stage("local_train", num_buckets=group.num_buckets):
            local = pipeline.local_train(step, group, self.executor)
        for update in local.updates:
            for observer in self.observers:
                observer.on_bucket_done(context, step, update)
        with clock.stage("aggregate"):
            aggregate = pipeline.aggregate(local)
        with clock.stage("noise"):
            noise = pipeline.noise(aggregate, sigma, step_rng)
        # The ledger preview is accounting work: it is billed to the
        # account stage, not to apply, which only consumes its answer.
        with clock.stage("account", span="engine.stage.account.preview"):
            snapshot_needed = pipeline.budget_would_cross(sigma)
        with clock.stage("apply"):
            applied = pipeline.apply(aggregate, snapshot_needed=snapshot_needed)
        with clock.stage("account"):
            account = pipeline.account(sigma)
        return StepResult(
            step=step,
            sample=sample,
            group=group,
            local_train=local,
            aggregate=aggregate,
            noise=noise,
            apply=applied,
            account=account,
            wall_time_seconds=time.perf_counter() - started,
        )
