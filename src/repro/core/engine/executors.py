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
``__cause__``). A *worker death* breaks the whole pool: the process pool
rebuilds it and **retries the round** a bounded number of times — safe
because jobs are pure functions of their pre-derived seeds, so a retry is
bit-identical to an undisturbed run.
"""

from __future__ import annotations

import abc
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._compat import deprecated_class_alias, register_deprecation, warn_deprecated
from repro.core._pairs import PairSource, PairSourceSpec
from repro.core.bucket import BucketUpdate, model_updates_from_buckets
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
            ExecutorError: when any job raises or a worker dies.
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
# pool initializer. A module-level global (not a closure) because the pool
# initializer must be a picklable top-level callable.
_WORKER_SOURCE: PairSource | None = None
_WORKER_FAULT_MARKER: str | None = None


def _init_shard_worker(
    source_spec: PairSourceSpec | None, fault_marker: str | None
) -> None:
    """Pool initializer: rebuild the read-only pair source in this worker."""
    global _WORKER_SOURCE, _WORKER_FAULT_MARKER
    _WORKER_SOURCE = source_spec.build() if source_spec is not None else None
    _WORKER_FAULT_MARKER = fault_marker


def _maybe_inject_fault() -> None:
    """Fault-injection hook for the worker-death tests.

    When a marker file exists, exactly one worker claims it (the atomic
    ``os.replace`` succeeds for a single process) and dies hard — the
    closest controllable stand-in for an OOM-killed or crashed worker.
    """
    marker = _WORKER_FAULT_MARKER
    if marker is None:
        return
    try:
        os.replace(marker, marker + ".claimed")
    except OSError:
        return
    os._exit(1)


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
    _maybe_inject_fault()
    resolved = [_resolve_deferred_job(_WORKER_SOURCE, job) for job in jobs]
    return run_bucket_chunk(spec, resolved)


class _RoundBroken(Exception):
    """Internal: a worker died mid-round; the pool is unusable."""

    def __init__(self, error: BaseException, first: int, last: int) -> None:
        super().__init__(f"worker died while executing buckets {first}..{last}")
        self.error = error
        self.first = first
        self.last = last


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
    mutates it (pool lifecycle, spec, observability bindings); dpsan
    asserts this at runtime.

    Fault tolerance: a worker death breaks the process pool mid-round. The
    executor closes the broken pool, rebuilds it (workers re-run the
    initializer), and retries the **whole round** — deterministically,
    because jobs are pure functions of their pre-derived seeds — up to
    ``max_round_retries`` times before surfacing an
    :class:`~repro.exceptions.ExecutorError`.

    Args:
        max_workers: worker process count (default: ``os.cpu_count()``).
        max_round_retries: worker-death round retries before giving up.
        fault_marker: path to a fault-injection marker file (tests only);
            when the file exists, exactly one worker claims it and dies.
    """

    out_of_process = True

    def __init__(
        self,
        max_workers: int | None = None,
        max_round_retries: int = 2,
        fault_marker: str | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if max_round_retries < 0:
            raise ConfigError(
                f"max_round_retries must be >= 0, got {max_round_retries}"
            )
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.max_round_retries = max_round_retries
        self._fault_marker = fault_marker
        self._source_spec: PairSourceSpec | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._observability: "Observability | None" = None
        self._metrics: "ShardMetrics | None" = None

    def configure(self, source_spec: PairSourceSpec | None) -> None:
        """Receive the run's pair-source spec; workers rebuild from it."""
        if self._pool is not None and source_spec is not self._source_spec:
            self.close()  # a new run's source invalidates the old workers
        self._source_spec = source_spec

    def bind_observability(self, observability: "Observability | None") -> None:
        """Bind the run's bundle; a reused executor rebinds for every run."""
        self._observability = observability
        self._metrics = None
        if observability is not None and observability.metrics is not None:
            from repro.observability.hooks import ShardMetrics

            self._metrics = ShardMetrics(observability.metrics)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_shard_worker,
                initargs=(self._source_spec, self._fault_marker),
            )
        return self._pool

    def run_step(
        self, spec: LocalTrainSpec, jobs: list[BucketJob]
    ) -> list[BucketUpdate]:
        if not jobs:
            return []
        retries = 0
        while True:
            try:
                return self._run_round(spec, jobs)
            except _RoundBroken as broken:
                self.close()  # rebuild the pool (and re-init workers) on retry
                retries += 1
                if self._metrics is not None:
                    self._metrics.retries.inc()
                if retries > self.max_round_retries:
                    raise ExecutorError(
                        f"{broken}; retry budget ({self.max_round_retries}) "
                        "exhausted"
                    ) from broken.error

    def _run_round(
        self, spec: LocalTrainSpec, jobs: list[BucketJob]
    ) -> list[BucketUpdate]:
        pool = self._ensure_pool()
        chunks = _chunk_evenly(jobs, self.max_workers)
        try:
            futures = [
                pool.submit(_run_sharded_chunk, spec, chunk) for chunk in chunks
            ]
        except BrokenProcessPool as error:
            raise _RoundBroken(error, jobs[0].index, jobs[-1].index) from error
        updates: list[BucketUpdate] = []
        shard_stats: list[tuple[int, int, float]] = []
        failure: BaseException | None = None
        failed_index: int | None = None
        for shard, (chunk, future) in enumerate(zip(chunks, futures)):
            if failure is not None:
                future.cancel()
                continue
            try:
                chunk_updates = future.result()
            except BrokenProcessPool as error:
                raise _RoundBroken(
                    error, chunk[0].index, chunk[-1].index
                ) from error
            except Exception as error:  # noqa: BLE001 - rewrapped with context
                failure = error
                failed_index = chunk[0].index
                continue
            updates.extend(chunk_updates)
            shard_stats.append(
                (
                    shard,
                    len(chunk),
                    sum(u.wall_time_seconds for u in chunk_updates),
                )
            )
        if failure is not None:
            raise ExecutorError(
                f"a bucket job in shard starting at bucket {failed_index} "
                f"failed during local training: {failure}"
            ) from failure
        self._record_round(shard_stats)
        return updates

    def _record_round(self, shard_stats: list[tuple[int, int, float]]) -> None:
        if self._metrics is not None:
            self._metrics.rounds.inc()
            for shard, buckets, seconds in shard_stats:
                self._metrics.shard_seconds.observe(seconds, shard=shard)
                self._metrics.shard_buckets.inc(buckets, shard=shard)
        if self._observability is not None:
            for shard, buckets, seconds in shard_stats:
                self._observability.record_span(
                    "engine.shard", seconds, shard=shard, buckets=buckets
                )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


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


#: Deprecated spelling of the process pool, kept for old imports.
ParallelExecutor = deprecated_class_alias(
    "ParallelExecutor", __name__, ShardedExecutor, "repro.core.engine.ShardedExecutor"
)

register_deprecation('executor="parallel"', 'executor="sharded"')


def make_executor(
    kind: "str | BucketExecutor | None", workers: int | None = None
) -> tuple[BucketExecutor, bool]:
    """Resolve an executor choice to an instance.

    Args:
        kind: ``"serial"``, ``"sharded"`` (the process pool), ``None``
            (= serial), or an already-built :class:`BucketExecutor`
            (returned as-is). ``"parallel"`` is a deprecated spelling of
            ``"sharded"``.
        workers: worker count for the process pool.

    Returns:
        ``(executor, owned)`` — ``owned`` is True when the executor was
        created here and the caller is responsible for closing it.
    """
    if isinstance(kind, BucketExecutor):
        return kind, False
    if kind is None or kind == "serial":
        return SerialExecutor(), True
    if kind == "parallel":
        warn_deprecated('executor="parallel"', 'executor="sharded"')
        kind = "sharded"
    if kind == "sharded":
        return ShardedExecutor(max_workers=workers), True
    raise ConfigError(
        f"executor must be 'serial', 'sharded', or a BucketExecutor, got {kind!r}"
    )
