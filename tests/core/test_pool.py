"""The one process pool (`repro.core.engine.pool.WorkerPool`).

Sharded training and sweeps both run on it, so its contract is tested
here once, through its public behaviour: the default width follows the
process's CPU affinity, workers cap their BLAS threads at their share of
the cores, and a worker death costs a rebuild that reruns only the jobs
whose results had not come back, within a bounded budget.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.engine import ShardedExecutor, executors
from repro.core.engine.blas import available_cores, blas_threads, limit_blas_threads
from repro.core.engine.pool import MAX_REBUILDS, WorkerPool
from repro.exceptions import ExecutorError
from repro.experiments import sweep

from ..experiments.test_sweep import SPEC_PAYLOAD


def _square(value: int, log_dir: str, marker: str | None) -> int:
    """Square ``value``, leaving one log file per execution.

    With a ``marker``, the job arms it (once per test: not after a worker
    has claimed it), so the next job to start kills its worker.
    """
    Path(log_dir, f"{value}-{os.getpid()}-{os.urandom(4).hex()}").touch()
    if marker is not None and not Path(marker + ".claimed").exists():
        Path(marker).touch()
    return value * value


def _executions(log_dir: Path) -> dict[int, int]:
    counts: dict[int, int] = {}
    for entry in log_dir.iterdir():
        value = int(entry.name.split("-")[0])
        counts[value] = counts.get(value, 0) + 1
    return counts


def _arm(marker: str) -> None:
    """Worker setup that re-arms the fault marker in every fresh worker."""
    Path(marker).touch()


class TestWidth:
    def test_default_width_follows_cpu_affinity(self, monkeypatch):
        # A process pinned to one core of a larger host: the default width
        # must be the one core the BLAS share divides, not os.cpu_count().
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert available_cores() == 1
        assert WorkerPool().max_workers == 1
        with ShardedExecutor() as executor:
            assert executor.max_workers == 1


class TestWorkerDeath:
    def test_death_reruns_only_unfinished_jobs(self, tmp_path):
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        marker = str(tmp_path / "kill-one-worker")
        # Job 1 arms the marker; the next job to start claims it and dies.
        jobs = [(value, str(log_dir), marker if value == 1 else None) for value in range(8)]
        results: dict[int, int] = {}
        before_death: set[int] = set()
        with WorkerPool(2, fault_marker=marker) as pool:
            for position, future in pool.as_completed(_square, jobs):
                assert position not in results  # each job is handed back once
                results[position] = future.result()
                if pool.rebuilds == 0:
                    before_death.add(position)
            assert pool.rebuilds == 1
        assert Path(marker + ".claimed").exists()
        assert results == {value: value * value for value in range(8)}
        # The arming job returned before its worker took the fatal job.
        assert 1 in before_death
        executions = _executions(log_dir)
        assert all(executions[value] == 1 for value in before_death), executions

    def test_rebuild_budget_exhaustion_raises(self, tmp_path):
        # A marker re-armed by every fresh worker kills every pool.
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        marker = str(tmp_path / "always-dead")
        jobs = [(value, str(log_dir), None) for value in range(4)]
        with WorkerPool(2, setup=_arm, setup_args=(marker,), fault_marker=marker) as pool:
            with pytest.raises(ExecutorError, match="rebuild budget"):
                list(pool.as_completed(_square, jobs))
            assert pool.rebuilds == MAX_REBUILDS


@pytest.mark.skipif(
    blas_threads() is None,
    reason="no OpenBLAS thread-control symbol found in this process",
)
class TestWorkerBlasCap:
    """Pool workers run at most their share of the cores in BLAS threads."""

    @pytest.mark.parametrize(
        "setup, setup_args",
        [
            pytest.param(executors._init_shard_worker, (None,), id="sharded"),
            pytest.param(sweep._init_sweep_worker, (SPEC_PAYLOAD,), id="sweep"),
        ],
    )
    def test_workers_cap_blas_threads_to_core_share(self, setup, setup_args):
        parent = blas_threads()
        share = max(1, available_cores() // 2)
        with WorkerPool(2, setup=setup, setup_args=setup_args) as pool:
            counts = [f.result() for _, f in pool.as_completed(blas_threads, [()] * 4)]
            # The cap only ever lowers a count; asking for more changes nothing.
            raised = [
                f.result() for _, f in pool.as_completed(limit_blas_threads, [(64,)])
            ]
        assert all(count <= min(share, parent) for count in counts + raised), (
            counts,
            raised,
        )
        # The coordinator's own BLAS pool is left alone.
        assert blas_threads() == parent
