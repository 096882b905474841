"""The one process pool: sharded training and sweeps both run on it.

Bucket training (Algorithm 1 lines 7-8) and the configurations of a
sweep are independent, deterministic jobs. :class:`WorkerPool` owns what
their two callers share: the default width (:func:`available_cores`, the
process's CPU affinity), the per-worker setup followed by one BLAS thread
cap, the test-only fault hook, and rebuilding after a worker death.
"""

from __future__ import annotations

import concurrent.futures
import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.core.engine.blas import available_cores, limit_blas_threads
from repro.exceptions import ConfigError, ExecutorError

#: Pool rebuilds one :meth:`WorkerPool.as_completed` call may make after
#: worker deaths before it gives up with an ``ExecutorError``.
MAX_REBUILDS = 3

# Set once per worker by the pool initializer.
_FAULT_MARKER: str | None = None


def _init_worker(
    setup: Callable[..., None] | None,
    setup_args: tuple[Any, ...],
    fault_marker: str | None,
    max_workers: int,
) -> None:
    """Pool initializer: the caller's setup, then the BLAS thread cap.

    A forked worker inherits the coordinator's one-thread-per-core
    OpenBLAS; ``max_workers`` of them would oversubscribe the host.
    Capping after the setup also covers any BLAS the setup loads (SciPy
    maps its own), and never raises an inherited lower count.
    """
    global _FAULT_MARKER
    if setup is not None:
        setup(*setup_args)
    limit_blas_threads(available_cores() // max_workers)
    _FAULT_MARKER = fault_marker


def _call(fn: Callable[..., Any], args: tuple[Any, ...]) -> Any:
    """Worker entry point: the fault hook (tests only), then the job.

    When the marker file exists, exactly one worker claims it (the atomic
    ``os.replace`` succeeds once) and dies hard, like an OOM-killed worker.
    """
    if _FAULT_MARKER is not None:
        try:
            os.replace(_FAULT_MARKER, _FAULT_MARKER + ".claimed")
        except OSError:
            pass
        else:
            os._exit(1)
    return fn(*args)


class WorkerPool:
    """A persistent process pool that survives worker deaths.

    Workers start on the first :meth:`as_completed` call and persist until
    :meth:`close`. Single-writer: only the thread that owns the pool calls
    it, so its lifecycle state needs no lock.

    Args:
        max_workers: worker process count (default: :func:`available_cores`).
        setup: top-level function each worker runs once, on
            ``setup_args``, to fill the caller's worker state.
        fault_marker: path to a fault-injection marker file (tests only).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        setup: Callable[..., None] | None = None,
        setup_args: tuple[Any, ...] = (),
        fault_marker: str | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or available_cores()
        self._setup = setup
        self._setup_args = setup_args
        self._fault_marker = fault_marker
        self._executor: ProcessPoolExecutor | None = None
        #: Rebuilds after worker deaths over the pool's lifetime.
        self.rebuilds = 0

    def as_completed(
        self, fn: Callable[..., Any], jobs: Sequence[tuple[Any, ...]]
    ) -> Iterator[tuple[int, Future]]:
        """Run ``fn(*job)`` for every job; yield ``(position, future)``.

        Each job is yielded once, as it completes, with a done future
        whose ``result()`` returns the job's value or raises its
        exception. A worker death breaks the whole pool; the pool is
        rebuilt and only the jobs not yet yielded are resubmitted (jobs
        are pure functions of their arguments), up to
        :data:`MAX_REBUILDS` times per call, then ``ExecutorError``.
        Jobs still queued when the caller stops iterating are cancelled.
        """
        pending = dict(enumerate(jobs))
        deaths = 0
        while pending:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_worker,
                    initargs=(
                        self._setup,
                        self._setup_args,
                        self._fault_marker,
                        self.max_workers,
                    ),
                )
            futures: dict[Future, int] = {}
            try:
                for position, args in pending.items():
                    futures[self._executor.submit(_call, fn, args)] = position
            except BrokenProcessPool:
                pass  # the futures already submitted are broken too
            try:
                for future in concurrent.futures.as_completed(futures):
                    if isinstance(future.exception(), BrokenProcessPool):
                        continue
                    position = futures[future]
                    del pending[position]
                    yield position, future
            finally:
                for future in futures:
                    future.cancel()
            if pending:
                deaths += 1
                self.close()
                if deaths > MAX_REBUILDS:
                    raise ExecutorError(
                        f"worker pool died {deaths} times; giving up with "
                        f"{len(pending)} jobs unfinished (rebuild budget "
                        f"{MAX_REBUILDS} exhausted)"
                    )
                self.rebuilds += 1

    def close(self) -> None:
        """Stop the workers (idempotent); the next call starts new ones."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
