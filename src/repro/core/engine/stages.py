"""Algorithm 1 as an explicit step pipeline of typed stages.

One training step of the paper's Algorithm 1 is the fixed stage sequence

    sample -> group -> local_train -> aggregate -> noise -> apply -> account

Each stage is a method of :class:`StepPipeline` returning a typed result
object; :class:`repro.core.engine.TrainingEngine` drives the sequence and
hands the assembled :class:`StepResult` to registered observers. Keeping
the stages explicit separates the *math* of a step from the *backend* that
executes buckets (:mod:`repro.core.engine.executors`) and from the
*instrumentation* around it (:mod:`repro.core.engine.observers`).

Determinism: every random decision of step ``t`` draws from streams derived
off the run's root seed — ``derive(root, t)`` for sampling, grouping, and
noise, and ``derive(root, t, i)`` for bucket ``i``'s local training — so
the result of a step depends only on (seed, data, config), never on which
executor ran the buckets or on how previous steps were scheduled.
"""

from __future__ import annotations

import numpy as np

from repro.core._pairs import InMemoryPairSource, PairSource
from repro.core.bucket import BucketUpdate
from repro.core.config import PLPConfig
from repro.core.engine.executors import BucketExecutor, BucketJob, LocalTrainSpec
from repro.core.grouping import assign_buckets, build_bucket_arrays, group_data
from repro.core.sampling import poisson_sample
from repro.models.skipgram import SkipGramModel
from repro.nn.optimizers import DPAdam
from repro.nn.parameters import ParameterSet
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.sensitivity import GaussianSumQuerySensitivity
from repro.rng import RngLike, derive_seed_sequence

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SampleResult:
    """Line 5 — Poisson user sampling."""

    users: tuple[int, ...]
    population: int


@dataclass(frozen=True, slots=True)
class GroupResult:
    """Line 6 — bucket assignment of the sampled users' pair data.

    Two materialization modes share this result type. The eager mode
    fills ``buckets`` with concatenated pair arrays. The deferred mode
    (process pool, omega = 1, a source with a picklable spec; see
    :meth:`StepPipeline.prepare_for`) leaves ``buckets`` empty and fills
    ``assignment`` with each bucket's user ids — pairs are resolved
    worker-side. Both modes are computed from the **same RNG
    draws**, so which mode ran is invisible to everything downstream.
    """

    buckets: tuple[np.ndarray, ...]
    assignment: tuple[tuple[int, ...], ...] = ()
    deferred: bool = False

    @property
    def num_buckets(self) -> int:
        return len(self.assignment) if self.deferred else len(self.buckets)


@dataclass(frozen=True, slots=True)
class LocalTrainResult:
    """Lines 7-8 / 15-22 — per-bucket local SGD and clipping."""

    updates: tuple[BucketUpdate, ...]
    mean_loss: float
    mean_unclipped_norm: float


@dataclass(frozen=True, slots=True)
class AggregateResult:
    """Line 9 (sum part) — clipped bucket deltas scatter-added together."""

    summed: dict[str, np.ndarray]
    denominator: int


@dataclass(frozen=True, slots=True)
class NoiseResult:
    """Line 9 (noise part) — Gaussian perturbation of the summed deltas."""

    sigma: float
    noise_stddev: float


@dataclass(frozen=True, slots=True)
class ApplyResult:
    """Line 10 — the averaged noisy update applied to theta."""

    mode: str
    snapshot_taken: bool


@dataclass(frozen=True, slots=True)
class AccountResult:
    """Lines 11-12 — the ledger records (C, sigma) and reports spend."""

    clip_bound: float
    sigma: float
    epsilon_spent: float


@dataclass(frozen=True, slots=True)
class StepResult:
    """All stage results of one completed Algorithm 1 step."""

    step: int
    sample: SampleResult
    group: GroupResult
    local_train: LocalTrainResult
    aggregate: AggregateResult
    noise: NoiseResult
    apply: ApplyResult
    account: AccountResult
    wall_time_seconds: float


class StepPipeline:
    """The stage functions of Algorithm 1 over one model/dataset/ledger.

    Concurrency: single-writer. The pipeline (snapshot, deferral flags,
    ledger writes) is mutated only by the engine's step loop on the
    coordinating trainer thread — executors return bucket results; they
    never touch pipeline state. dpsan asserts this at runtime.

    Args:
        config: the Algorithm 1 hyper-parameters.
        model: the skip-gram model being trained (owns ``theta``).
        user_pairs: per-user (target, context) pair arrays — either the
            historical dict or any :class:`~repro.core._pairs.PairSource`
            (a dict is wrapped in an in-memory source).
        root: RNG root (seed or generator); per-step and per-bucket
            sub-streams are derived from its seed material without
            consuming draws.
        ledger: privacy ledger, or ``None`` for non-private runs (the
            account stage then reports infinite spend).
    """

    def __init__(
        self,
        config: PLPConfig,
        model: SkipGramModel,
        user_pairs: "dict[int, np.ndarray] | PairSource",
        root: RngLike,
        ledger: PrivacyLedger | None = None,
    ) -> None:
        self.config = config
        self.model = model
        if isinstance(user_pairs, PairSource):
            self.source: PairSource = user_pairs
        else:
            self.source = InMemoryPairSource(user_pairs)
            self.user_pairs = user_pairs  # historical attribute, dict input only
        self.users = self.source.users
        self.root = root
        self.ledger = ledger
        self._defer_pairs = False
        self.sensitivity = GaussianSumQuerySensitivity(
            clip_bound=config.clip_bound, split_factor=config.split_factor
        )
        self.server_optimizer = (
            DPAdam(learning_rate=config.server_learning_rate)
            if config.server_optimizer == "adam"
            else None
        )

    # -- pre-run handshake -----------------------------------------------------

    def prepare_for(self, executor: BucketExecutor) -> None:
        """Adapt the pipeline to the executor before the first step.

        Jobs ship user ids instead of pairs (deferred mode: :meth:`group`
        produces user-id assignments instead of concatenated arrays) when
        the executor runs out of process, ``split_factor`` (omega) is 1 —
        splitting draws pair-data-dependent randomness, so it needs the
        pairs on the coordinator — and the source has a picklable spec for
        the workers to rebuild from. Otherwise jobs carry their pairs
        (eager mode). The stage *randomness* is unaffected: deferred and
        eager grouping consume identical draws.
        """
        self._defer_pairs = False
        if not executor.out_of_process:
            return
        spec = self.source.spec() if self.config.split_factor == 1 else None
        executor.configure(spec)
        # Close-before-fork: the executor's pool start may fork this
        # process, and any mmap handle open on the source would be
        # inherited by the children. Dropping them here is cheap — the
        # coordinator lazily reopens on its next access.
        self.source.release_resources()
        self._defer_pairs = spec is not None

    # -- stages, in Algorithm 1 order -----------------------------------------

    def sample(self, step_rng: np.random.Generator) -> SampleResult:
        """Poisson-sample users with probability ``q`` (line 5)."""
        sampled = poisson_sample(
            self.users, self.config.sampling_probability, step_rng
        )
        return SampleResult(users=tuple(sampled), population=len(self.users))

    def group(
        self, sample: SampleResult, step_rng: np.random.Generator
    ) -> GroupResult:
        """Group the sampled users' pairs into lambda-user buckets (line 6)."""
        config = self.config
        if config.split_factor > 1:
            # omega > 1 splits pair arrays with pair-data-dependent draws,
            # so it always runs eagerly (prepare_for() never defers it).
            sampled_pairs = {
                user: self.source.pairs(user) for user in sample.users
            }
            buckets = group_data(
                sampled_pairs,
                grouping_factor=config.grouping_factor,
                split_factor=config.split_factor,
                strategy=config.grouping_strategy,
                rng=step_rng,
            )
            return GroupResult(buckets=tuple(buckets))

        counts = (
            {user: self.source.pair_count(user) for user in sample.users}
            if config.grouping_strategy == "equal_frequency"
            else None
        )
        assignment = assign_buckets(
            list(sample.users),
            config.grouping_factor,
            config.grouping_strategy,
            step_rng,
            record_counts=counts,
        )
        if self._defer_pairs:
            return GroupResult(
                buckets=(),
                assignment=tuple(tuple(bucket) for bucket in assignment),
                deferred=True,
            )
        sampled_pairs = {user: self.source.pairs(user) for user in sample.users}
        buckets = build_bucket_arrays(assignment, sampled_pairs)
        return GroupResult(buckets=tuple(buckets))

    def local_train(
        self, step: int, group: GroupResult, executor: BucketExecutor
    ) -> LocalTrainResult:
        """Run every bucket's local SGD + clipping through the executor."""
        config = self.config
        spec = LocalTrainSpec(
            model=self.model,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            clip_bound=config.clip_bound,
            clipping=config.clipping,
            local_update=config.local_update,
        )
        if group.deferred:
            # Ship user ids only; workers resolve pairs from their local
            # source. Seeds are derived per bucket index exactly as in the
            # eager path, so local-training randomness is identical.
            jobs = [
                BucketJob(
                    index=index,
                    pairs=None,
                    seed=derive_seed_sequence(self.root, step, index),
                    users=bucket_users,
                )
                for index, bucket_users in enumerate(group.assignment)
            ]
        else:
            jobs = [
                BucketJob(
                    index=index,
                    pairs=pairs,
                    seed=derive_seed_sequence(self.root, step, index),
                )
                for index, pairs in enumerate(group.buckets)
            ]
        updates = executor.run_step(spec, jobs)
        losses = [u.mean_loss for u in updates if u.num_batches]
        norms = [u.unclipped_norm for u in updates]
        return LocalTrainResult(
            updates=tuple(updates),
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            mean_unclipped_norm=float(np.mean(norms)) if norms else 0.0,
        )

    def aggregate(self, local: LocalTrainResult) -> AggregateResult:
        """Scatter-add the clipped deltas, in bucket order (line 9, sum).

        Delegated to the model's kernel backend; the shared implementation
        consumes updates in bucket order so the floating-point sum is
        executor- and backend-independent.
        """
        params = self.model.params
        summed = {name: np.zeros_like(tensor) for name, tensor in params.items()}
        self.model.backend.aggregate(
            ((update.rows, update.values) for update in local.updates), summed
        )
        return AggregateResult(
            summed=summed, denominator=max(1, len(local.updates))
        )

    def noise(
        self,
        aggregate: AggregateResult,
        sigma: float,
        step_rng: np.random.Generator,
    ) -> NoiseResult:
        """Add ``N(0, sigma^2 omega^2 C^2 I)`` to the sum (line 9, noise)."""
        # Guard the sigma = 0 case explicitly: with an unbounded clip norm
        # (non-private runs use C = inf) the product 0 * inf would be nan.
        noise_stddev = self.sensitivity.noise_stddev(sigma) if sigma > 0.0 else 0.0
        # The backend's shared add_noise draws from step_rng in tensor
        # insertion order — identical draws no matter which backend
        # produced the deltas, so sigma accounting matches the noise added.
        self.model.backend.add_noise(aggregate.summed, noise_stddev, step_rng)
        return NoiseResult(sigma=sigma, noise_stddev=noise_stddev)

    def apply(
        self, aggregate: AggregateResult, snapshot_needed: bool
    ) -> ApplyResult:
        """Average the noisy sum by ``|H|`` and apply it to theta (line 10).

        Args:
            aggregate: the (already noised) summed deltas.
            snapshot_needed: snapshot theta before applying, so the engine
                can roll this step back (line 13). The engine requests a
                snapshot only when the ledger predicts the budget could be
                crossed this step — the common-path full-parameter copy of
                a naive per-step snapshot is skipped entirely.
        """
        params = self.model.params
        self._snapshot = params.copy() if snapshot_needed else None
        averaged = {
            name: tensor / aggregate.denominator
            for name, tensor in aggregate.summed.items()
        }
        if self.server_optimizer is None:
            params.add_(averaged)  # line 10: theta_{t+1} = theta_t + g_hat
        else:
            self.server_optimizer.step(
                params, {name: -tensor for name, tensor in averaged.items()}
            )
        return ApplyResult(
            mode=self.config.server_optimizer, snapshot_taken=snapshot_needed
        )

    def account(self, sigma: float) -> AccountResult:
        """Record (C, sigma) in the ledger and report the spend (lines 11-12)."""
        config = self.config
        if self.ledger is None:
            return AccountResult(
                clip_bound=config.clip_bound, sigma=sigma,
                epsilon_spent=float("inf"),
            )
        self.ledger.track_budget(config.clip_bound, sigma)
        return AccountResult(
            clip_bound=config.clip_bound,
            sigma=sigma,
            epsilon_spent=self.ledger.cumulative_budget_spent(),
        )

    # -- rollback support ------------------------------------------------------

    _snapshot: "ParameterSet | None" = None

    def budget_would_cross(self, sigma: float) -> bool:
        """Whether accounting this step would reach the epsilon budget.

        Uses the ledger's draw-free preview so the answer is available
        *before* the update is applied — the rollback snapshot is taken
        only on the (at most one) step where it is actually needed.
        """
        if self.ledger is None or sigma <= 0.0:
            return False
        preview = self.ledger.preview_budget_spent(sigma)
        return preview >= self.config.epsilon

    def rollback(self) -> None:
        """Line 13: restore the pre-step snapshot (``return theta_{t-1}``)."""
        if self._snapshot is None:
            raise RuntimeError(
                "rollback requested but no pre-step snapshot was taken; "
                "stop conditions that roll back must only fire on steps "
                "where budget_would_cross() returned True"
            )
        params = self.model.params
        for name in params.names():
            params[name][...] = self._snapshot[name]
        self._snapshot = None
