"""Bucket execution backends for the local-training stage.

A :class:`BucketExecutor` runs one step's worth of bucket jobs (Algorithm 1
lines 7-8: per-bucket local SGD + clipping) and returns the resulting
:class:`~repro.core.bucket.BucketUpdate` list **in bucket-index order**.
Two implementations are provided:

- :class:`SerialExecutor` — runs buckets in-process, one after another.
- :class:`ShardedExecutor` — the process pool: persistent workers run
  contiguous chunks ("shards") of the step's jobs. A job either carries
  its materialized pair array (*eager*) or only its members' user ids
  (*deferred*), which workers resolve against a read-only
  :class:`~repro.core._pairs.PairSource` rebuilt from a small picklable
  spec at pool start. The pipeline chooses the form per run (see
  :meth:`~repro.core.engine.stages.StepPipeline.prepare_for`). Either way
  workers stream back clipped float64 bucket deltas, and the coordinator
  stays the single writer for aggregation, noising, and accounting.

Both are **bit-identical** for the same seed: every bucket job carries its
own pre-derived :class:`numpy.random.SeedSequence` (from
``repro.rng.derive_seed_sequence(root, step, bucket_index)``), local
training never mutates shared state (``theta`` is read-only, see
:mod:`repro.core.bucket`), and results are reassembled in index order so
the downstream floating-point summation order matches the serial run.

Failure contract: if any bucket job raises, the step fails eagerly with
:class:`repro.exceptions.ExecutorError` (original exception chained as
``__cause__``). A *worker death* breaks the whole pool: the
:class:`~repro.core.engine.pool.WorkerPool` rebuilds it and reruns only
the shards that had not finished, a bounded number of times — safe
because jobs are pure functions of their pre-derived seeds, so a rerun is
bit-identical to an undisturbed run.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core._pairs import PairSource, PairSourceSpec
from repro.core.bucket import BucketUpdate, model_updates_from_buckets
from repro.core.engine.pool import WorkerPool
from repro.core.grouping import build_bucket_arrays
from repro.exceptions import ConfigError, ExecutorError
from repro.models.skipgram import SkipGramModel

if TYPE_CHECKING:
    from repro.observability.hooks import Observability, ShardMetrics


@dataclass(frozen=True, slots=True)
class LocalTrainSpec:
    """Step-constant inputs of the local-training stage.

    The spec (including the model with its ``theta_t`` snapshot) is shared
    by all bucket jobs of one step; process workers receive a pickled copy
    per chunk.
    """

    model: SkipGramModel
    batch_size: int
    learning_rate: float
    clip_bound: float
    clipping: str
    local_update: str


@dataclass(frozen=True, slots=True)
class BucketJob:
    """One bucket's job: its data plus a pre-derived RNG sub-stream.

    Carrying the ``SeedSequence`` (not a live generator) keeps the job
    cheaply picklable and makes the bucket's randomness independent of
    where and when the job runs.

    The bucket's data travels in one of two forms: ``pairs`` holds the
    materialized (target, context) array (an *eager* job), or ``pairs`` is
    ``None`` and ``users`` names the bucket's members for a worker-side
    :class:`~repro.core._pairs.PairSource` to resolve (a *deferred* job —
    only ids cross the process boundary).
    """

    index: int
    pairs: np.ndarray | None
    seed: np.random.SeedSequence
    users: tuple[int, ...] = ()


def run_bucket_chunk(
    spec: LocalTrainSpec, jobs: list[BucketJob]
) -> list[BucketUpdate]:
    """Run a contiguous chunk of eager bucket jobs in one backend call.

    Routes the whole chunk through
    :func:`~repro.core.bucket.model_updates_from_buckets` so backends
    that batch compute across buckets (the fast backend) see every bucket
    of the chunk at once; the reference backend runs them one by one. The
    chunk's wall time is attributed to the updates proportionally to their
    batch counts (per-bucket timing without a per-bucket clock), so it
    survives the trip back from worker processes without a side channel.
    """
    if not jobs:
        return []
    pair_arrays: list[np.ndarray] = []
    for job in jobs:
        if job.pairs is None:
            raise ExecutorError(
                f"bucket {job.index} carries user ids but no materialized "
                "pairs; deferred jobs must run through the process pool"
            )
        pair_arrays.append(job.pairs)
    started = time.perf_counter()
    updates = model_updates_from_buckets(
        spec.model,
        spec.model.params,
        pair_arrays,
        batch_size=spec.batch_size,
        learning_rate=spec.learning_rate,
        clip_bound=spec.clip_bound,
        clipping=spec.clipping,
        local_update=spec.local_update,
        # Sanctioned seed-plumbing site: each bucket rehydrates its own
        # pre-derived SeedSequence (from repro.rng.derive_seed_sequence);
        # no new stream is created, so bit-identity is preserved.
        # dplint: disable-next=DPL001 -- documented seed-plumbing site
        rngs=[np.random.default_rng(job.seed) for job in jobs],
    )
    elapsed = time.perf_counter() - started
    weights = [max(1, update.num_batches) for update in updates]
    total = sum(weights)
    for update, weight in zip(updates, weights):
        update.wall_time_seconds = elapsed * weight / total
    return updates


class BucketExecutor(abc.ABC):
    """Runs one training step's bucket jobs and gathers the updates."""

    #: Whether jobs run in other processes. The pipeline only defers pair
    #: materialization (ships user ids instead of pairs) for such
    #: executors, and drops its own mmap handles before their pool forks.
    out_of_process: bool = False

    @abc.abstractmethod
    def run_step(
        self, spec: LocalTrainSpec, jobs: list[BucketJob]
    ) -> list[BucketUpdate]:
        """Execute all jobs; return their updates in bucket-index order.

        Raises:
            ExecutorError: when any job raises, or workers keep dying.
        """

    def configure(self, source_spec: PairSourceSpec | None) -> None:
        """Receive the run's pair-source spec (pre-run pipeline handshake).

        ``None`` means the run's jobs carry their pairs. Only called on
        ``out_of_process`` executors; the default is a no-op.
        """

    def bind_observability(self, observability: "Observability | None") -> None:
        """Attach the run's observability handle (default: no-op)."""

    def close(self) -> None:
        """Release any backing resources (idempotent)."""

    def __enter__(self) -> "BucketExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(BucketExecutor):
    """In-process reference executor: buckets run one after another."""

    def run_step(
        self, spec: LocalTrainSpec, jobs: list[BucketJob]
    ) -> list[BucketUpdate]:
        try:
            return run_bucket_chunk(spec, jobs)
        except Exception as error:
            raise ExecutorError(
                f"a bucket job failed during local training: {error}"
            ) from error


# Worker-process state of the process pool, set once per worker by the
# pool setup. A module-level global (not a closure) because the setup must
# be a picklable top-level callable.
_WORKER_SOURCE: PairSource | None = None


def _init_shard_worker(source_spec: PairSourceSpec | None) -> None:
    """Pool setup: rebuild the read-only pair source in this worker."""
    global _WORKER_SOURCE
    _WORKER_SOURCE = source_spec.build() if source_spec is not None else None


def _resolve_deferred_job(source: PairSource | None, job: BucketJob) -> BucketJob:
    """Materialize one deferred job's pairs from the worker's source.

    Eager jobs pass through unchanged. Uses the same
    :func:`~repro.core.grouping.build_bucket_arrays` concatenation
    (bucket-member order, empties skipped) as the eager path, so the
    resulting array is bit-identical to what the coordinator would have
    shipped.
    """
    if job.pairs is not None:
        return job
    if source is None:
        raise ExecutorError(
            f"bucket {job.index} carries user ids but the worker has no pair "
            "source; run it through the engine (pipeline.prepare_for "
            "configures the pool before the first step)"
        )
    member_pairs = {user: source.pairs(user) for user in job.users}
    pairs = build_bucket_arrays([list(job.users)], member_pairs)[0]
    return BucketJob(index=job.index, pairs=pairs, seed=job.seed, users=job.users)


def _run_sharded_chunk(
    spec: LocalTrainSpec, jobs: list[BucketJob]
) -> list[BucketUpdate]:
    """Worker entry point: resolve deferred jobs locally, then run."""
    resolved = [_resolve_deferred_job(_WORKER_SOURCE, job) for job in jobs]
    return run_bucket_chunk(spec, resolved)


class ShardedExecutor(BucketExecutor):
    """Process-pool executor: persistent workers run the step's buckets.

    Each round's Poisson-sampled buckets are partitioned into at most
    ``max_workers`` contiguous chunks — "shards" — one submission per
    worker per step; the step-constant spec (with the read-only theta
    snapshot) is pickled once per shard. Jobs arrive in one of two forms,
    chosen per run by
    :meth:`~repro.core.engine.stages.StepPipeline.prepare_for`:

    - **deferred** — jobs carry only user ids plus their pre-derived seeds.
      Workers rebuild the corpus access layer locally from the
      :class:`~repro.core._pairs.PairSourceSpec` received at pool start
      (for a disk-backed corpus that is a path plus the token table) and
      materialize each bucket's pairs on demand: the out-of-core path.
    - **eager** — jobs carry their materialized pair arrays (``omega`` > 1,
      or a source without a picklable spec); workers need no source.

    Workers stream back clipped float64 bucket deltas. The coordinator
    reassembles them in bucket-index order and remains the single writer
    for aggregation, noising, and accounting — so the privacy ledger is
    bit-identical to a serial run. The executor object itself follows the
    same single-writer discipline: only the coordinating trainer thread
    mutates it (pool lifecycle, spec, observability bindings). The shards
    run on a :class:`~repro.core.engine.pool.WorkerPool`, which reruns only
    the unfinished shards after a worker death.

    Args:
        max_workers: worker process count (default: the available cores).
        fault_marker: path to a fault-injection marker file (tests only);
            when the file exists, exactly one worker claims it and dies.
    """

    out_of_process = True

    def __init__(
        self, max_workers: int | None = None, fault_marker: str | None = None
    ) -> None:
        self._fault_marker = fault_marker
        self._source_spec: PairSourceSpec | None = None
        self._pool = self._new_pool(max_workers)
        self.max_workers = self._pool.max_workers
        self._observability: "Observability | None" = None
        self._metrics: "ShardMetrics | None" = None

    def _new_pool(self, max_workers: int | None) -> WorkerPool:
        return WorkerPool(
            max_workers,
            setup=_init_shard_worker,
            setup_args=(self._source_spec,),
            fault_marker=self._fault_marker,
        )

    def configure(self, source_spec: PairSourceSpec | None) -> None:
        """Receive the run's pair-source spec; workers rebuild from it."""
        if source_spec is not self._source_spec:
            self.close()  # a new run's source invalidates the old workers
            self._source_spec = source_spec
            self._pool = self._new_pool(self.max_workers)

    def bind_observability(self, observability: "Observability | None") -> None:
        """Bind the run's bundle; a reused executor rebinds for every run."""
        self._observability = observability
        self._metrics = None
        if observability is not None and observability.metrics is not None:
            from repro.observability.hooks import ShardMetrics

            self._metrics = ShardMetrics(observability.metrics)

    def run_step(
        self, spec: LocalTrainSpec, jobs: list[BucketJob]
    ) -> list[BucketUpdate]:
        if not jobs:
            return []
        chunks = _chunk_evenly(jobs, self.max_workers)
        results: dict[int, list[BucketUpdate]] = {}
        rebuilds = self._pool.rebuilds
        try:
            for shard, future in self._pool.as_completed(
                _run_sharded_chunk, [(spec, chunk) for chunk in chunks]
            ):
                try:
                    results[shard] = future.result()
                except Exception as error:  # noqa: BLE001 - rewrapped with context
                    raise ExecutorError(
                        f"a bucket job in shard starting at bucket "
                        f"{chunks[shard][0].index} failed during local "
                        f"training: {error}"
                    ) from error
        finally:
            if self._metrics is not None and self._pool.rebuilds > rebuilds:
                self._metrics.retries.inc(self._pool.rebuilds - rebuilds)
        if self._metrics is not None:
            self._metrics.rounds.inc()
        for shard, chunk in enumerate(chunks):
            seconds = sum(update.wall_time_seconds for update in results[shard])
            if self._metrics is not None:
                self._metrics.shard_seconds.observe(seconds, shard=shard)
                self._metrics.shard_buckets.inc(len(chunk), shard=shard)
            if self._observability is not None:
                self._observability.record_span(
                    "engine.shard", seconds, shard=shard, buckets=len(chunk)
                )
        return [update for shard in range(len(chunks)) for update in results[shard]]

    def close(self) -> None:
        self._pool.close()


def _chunk_evenly(jobs: list[BucketJob], parts: int) -> list[list[BucketJob]]:
    """Split ``jobs`` into at most ``parts`` contiguous, near-even chunks."""
    parts = max(1, min(parts, len(jobs)))
    size, extra = divmod(len(jobs), parts)
    chunks: list[list[BucketJob]] = []
    start = 0
    for part in range(parts):
        stop = start + size + (1 if part < extra else 0)
        chunks.append(jobs[start:stop])
        start = stop
    return chunks


def make_executor(
    kind: "str | BucketExecutor | None", workers: int | None = None
) -> tuple[BucketExecutor, bool]:
    """Resolve an executor choice to an instance.

    Args:
        kind: ``"serial"``, ``"sharded"`` (the process pool), ``None``
            (= serial), or an already-built :class:`BucketExecutor`
            (returned as-is).
        workers: worker count for the process pool.

    Returns:
        ``(executor, owned)`` — ``owned`` is True when the executor was
        created here and the caller is responsible for closing it.
    """
    if isinstance(kind, BucketExecutor):
        return kind, False
    if kind is None or kind == "serial":
        return SerialExecutor(), True
    if kind == "sharded":
        return ShardedExecutor(max_workers=workers), True
    raise ConfigError(
        f"executor must be 'serial', 'sharded', or a BucketExecutor, got {kind!r}"
    )
