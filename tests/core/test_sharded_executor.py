"""Tests for the out-of-core ShardedExecutor and the deferred pipeline path.

The load-bearing contract: for the same seed, training results (embeddings
AND privacy ledger) are bit-identical between the serial executor and the
process pool, whether the corpus lives in memory or in a sharded on-disk
store, whether jobs ship user ids (deferred) or pairs (eager: omega > 1,
or a source without a spec), for every kernel backend and grouping
strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._pairs import PairSource
from repro.core.config import PLPConfig
from repro.core.engine import (
    BucketJob,
    CheckpointObserver,
    MaxStepsObserver,
    Observer,
    SerialExecutor,
    ShardedExecutor,
    StepPipeline,
    TrainingEngine,
    make_executor,
)
from repro.core.engine.blas import available_cores, blas_threads, limit_blas_threads
from repro.core.trainer import PrivateLocationPredictor
from repro.data.checkins import CheckinDataset
from repro.data.store import write_sharded_store
from repro.data.synthetic import SyntheticConfig, generate_checkins
from repro.exceptions import ConfigError, ExecutorError
from repro.models.serialization import load_training_checkpoint
from repro.models.skipgram import SkipGramModel
from repro.privacy.accountant import PrivacyLedger
from repro.rng import derive_seed_sequence


def _fast_config(**overrides) -> PLPConfig:
    base = dict(
        embedding_dim=8,
        num_negatives=4,
        sampling_probability=0.3,
        noise_multiplier=2.0,
        epsilon=50.0,
        grouping_factor=3,
        max_steps=3,
    )
    base.update(overrides)
    return PLPConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    config = SyntheticConfig(num_users=60, num_locations=50, num_clusters=5)
    return CheckinDataset(generate_checkins(config, rng=17))


@pytest.fixture(scope="module")
def corpus_dir(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "corpus"
    write_sharded_store(path, corpus, users_per_shard=25)
    return path


def _train(dataset, config, executor, workers=None, observers=()):
    trainer = PrivateLocationPredictor(
        config, rng=42, executor=executor, workers=workers, observers=observers
    )
    trainer.fit(dataset)
    return trainer


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.model.params["W"], b.model.params["W"])
    np.testing.assert_array_equal(a.model.params["Wc"], b.model.params["Wc"])
    assert a.ledger.cumulative_budget_spent() == b.ledger.cumulative_budget_spent()
    assert len(a.history) == len(b.history)
    for left, right in zip(a.history, b.history):
        assert left.mean_loss == right.mean_loss
        assert left.num_buckets == right.num_buckets


class _GroupModes(Observer):
    """Records whether each step's jobs were deferred (user ids only)."""

    def __init__(self) -> None:
        self.deferred = []

    def on_step_end(self, context, result):
        self.deferred.append(result.group.deferred)


class _OpaqueSource(PairSource):
    """A custom pair source without a picklable spec."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def users(self):
        return self.inner.users

    def pairs(self, user):
        return self.inner.pairs(user)

    def pair_count(self, user):
        return self.inner.pair_count(user)


class TestBitIdentityAcrossExecutors:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_serial_parallel_sharded_identical(self, corpus, corpus_dir, backend):
        config = _fast_config(backend=backend)
        serial = _train(corpus, config, "serial")
        modes = _GroupModes()
        sharded_mem = _train(corpus, config, "sharded", workers=2, observers=[modes])
        sharded_disk = _train(str(corpus_dir), config, "sharded", workers=2)
        _assert_same_run(serial, sharded_mem)
        _assert_same_run(serial, sharded_disk)
        assert all(modes.deferred)

    def test_equal_frequency_grouping_identical(self, corpus, corpus_dir):
        config = _fast_config(grouping_strategy="equal_frequency")
        serial = _train(corpus, config, "serial")
        sharded_disk = _train(str(corpus_dir), config, "sharded", workers=2)
        _assert_same_run(serial, sharded_disk)

    def test_split_factor_two_runs_eagerly(self, corpus, corpus_dir):
        # omega = 2 splits pairs with pair-data-dependent draws, so the
        # pool receives materialized pairs instead of user ids.
        config = _fast_config(split_factor=2)
        serial = _train(corpus, config, "serial")
        modes = _GroupModes()
        sharded_mem = _train(corpus, config, "sharded", workers=2, observers=[modes])
        sharded_disk = _train(str(corpus_dir), config, "sharded", workers=2)
        _assert_same_run(serial, sharded_mem)
        _assert_same_run(serial, sharded_disk)
        assert modes.deferred and not any(modes.deferred)

    def test_specless_source_runs_eagerly(self, corpus):
        from repro.core._pairs import build_pair_source
        from repro.data.store import open_corpus

        _, source = build_pair_source(open_corpus(corpus), window=2)
        config = _fast_config()

        def run(executor):
            model = SkipGramModel(num_locations=80, embedding_dim=8, rng=0)
            ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.3)
            pipeline = StepPipeline(
                config, model, _OpaqueSource(source), root=7, ledger=ledger
            )
            modes = _GroupModes()
            TrainingEngine(
                pipeline, executor, observers=[MaxStepsObserver(3), modes]
            ).run()
            return model, ledger, modes.deferred

        serial_model, serial_ledger, _ = run(SerialExecutor())
        with ShardedExecutor(max_workers=2) as executor:
            pool_model, pool_ledger, deferred = run(executor)
        for name in serial_model.params.names():
            np.testing.assert_array_equal(
                serial_model.params[name], pool_model.params[name]
            )
        assert serial_ledger.entries == pool_ledger.entries
        assert len(deferred) == 3 and not any(deferred)


class TestFaultTolerance:
    def test_worker_death_retries_to_identical_result(
        self, corpus, corpus_dir, tmp_path
    ):
        config = _fast_config()
        serial = _train(corpus, config, "serial")

        marker = tmp_path / "kill-one-worker"
        marker.touch()
        executor = ShardedExecutor(max_workers=2, fault_marker=str(marker))
        with executor:
            survived = _train(str(corpus_dir), config, executor)
        # The marker was claimed: exactly one worker died and the round
        # was deterministically replayed on a fresh pool.
        assert not marker.exists()
        _assert_same_run(serial, survived)

    def test_retry_budget_exhaustion_raises(self, corpus_dir, tmp_path):
        # A marker that re-arms on every claim exhausts the retry budget.
        config = _fast_config(max_steps=1)
        marker = tmp_path / "always-dead"

        class RearmingExecutor(ShardedExecutor):
            def run_step(self, spec, jobs):
                marker.touch()
                return super().run_step(spec, jobs)

            def _run_round(self, spec, jobs):
                marker.touch()
                return super()._run_round(spec, jobs)

        executor = RearmingExecutor(
            max_workers=2, max_round_retries=1, fault_marker=str(marker)
        )
        with executor, pytest.raises(ExecutorError, match="retry budget"):
            _train(str(corpus_dir), config, executor)

    def test_checkpoint_round_trip_through_sharded_executor(
        self, corpus_dir, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        config = _fast_config()
        trainer = _train(
            str(corpus_dir),
            config,
            "sharded",
            workers=2,
            observers=[CheckpointObserver(path)],
        )
        checkpoint = load_training_checkpoint(path)
        assert checkpoint.step == len(trainer.history)
        np.testing.assert_array_equal(
            checkpoint.parameters["W"], trainer.model.params["W"]
        )
        resumed = checkpoint.restore_ledger()
        assert (
            resumed.cumulative_budget_spent()
            == trainer.ledger.cumulative_budget_spent()
        )


class TestConfigValidation:
    def test_make_executor_sharded(self):
        executor, owned = make_executor("sharded", workers=2)
        try:
            assert isinstance(executor, ShardedExecutor)
            assert owned
            assert executor.max_workers == 2
        finally:
            executor.close()

    def test_invalid_constructor_args(self):
        with pytest.raises(ConfigError, match="max_workers"):
            ShardedExecutor(max_workers=0)
        with pytest.raises(ConfigError, match="max_round_retries"):
            ShardedExecutor(max_round_retries=-1)

    def test_unconfigured_executor_rejects_jobs(self):
        # A deferred job needs a worker-side pair source, which only the
        # pipeline handshake (prepare_for -> configure) provides.
        job = BucketJob(
            index=0, pairs=None, seed=derive_seed_sequence(0, 1, 0), users=(1, 2)
        )
        with ShardedExecutor(max_workers=1) as executor:
            with pytest.raises(ExecutorError, match="no pair source"):
                executor.run_step(None, [job])


def _worker_blas_threads() -> int | None:
    return blas_threads()


def _worker_blas_threads_after_raise_attempt() -> int | None:
    return limit_blas_threads(64)


@pytest.mark.skipif(
    blas_threads() is None,
    reason="no OpenBLAS thread-control symbol found in this process",
)
class TestWorkerBlasCap:
    """Pool workers run at most their share of the cores in BLAS threads."""

    def test_workers_cap_blas_threads_to_core_share(self):
        parent = blas_threads()
        share = max(1, available_cores() // 2)
        with ShardedExecutor(max_workers=2) as executor:
            pool = executor._ensure_pool()
            counts = [pool.submit(_worker_blas_threads).result() for _ in range(4)]
            raised = pool.submit(_worker_blas_threads_after_raise_attempt).result()
        assert all(count <= min(share, parent) for count in counts), counts
        # The cap only ever lowers a count; asking for more changes nothing.
        assert raised <= min(share, parent)
        # The coordinator's own BLAS pool is left alone.
        assert blas_threads() == parent


class TestForkSafetyContract:
    """Close-before-fork / reopen-in-worker for mmap-backed stores (DPL008).

    A memory-mapped shard must never cross a process boundary: pickling a
    numpy memmap silently serializes the *full shard bytes*, and the OS
    handle is invalid in the child anyway. The contract is that the
    coordinator drops its maps before shipping work and remaps lazily.
    """

    def _store_source(self, corpus_dir):
        from repro.core._pairs import build_pair_source
        from repro.data.store import ShardedCheckinStore

        store = ShardedCheckinStore(corpus_dir)
        _, source = build_pair_source(store, window=2)
        return store, source

    def test_release_resources_drops_maps_and_cache(self, corpus_dir):
        store, source = self._store_source(corpus_dir)
        user = store.users[0]
        before = source.pairs(user).copy()
        assert store._open_shards, "reading history should map a shard"
        assert source._cache, "reading pairs should populate the LRU"

        source.release_resources()
        assert not store._open_shards
        assert not source._cache
        # The store stays usable: access lazily remaps.
        np.testing.assert_array_equal(source.pairs(user), before)

    def test_pickling_a_mapped_store_drops_handles_and_stays_small(
        self, corpus_dir
    ):
        import pickle

        from repro.data.store import ShardedCheckinStore

        store = ShardedCheckinStore(corpus_dir)
        user = store.users[0]
        original = store.history(user)
        assert store._open_shards

        payload = pickle.dumps(store)
        fresh = pickle.dumps(ShardedCheckinStore(corpus_dir))
        # Without __getstate__ the live memmap would serialize the whole
        # shard; with it, a mapped store pickles like an unmapped one.
        assert abs(len(payload) - len(fresh)) < 4096

        clone = pickle.loads(payload)
        assert not clone._open_shards
        assert clone.history(user).checkins == original.checkins

    def test_prepare_for_releases_coordinator_resources(self, corpus_dir):
        # Deferred (omega = 1) and eager (omega = 2) runs both fork a pool.
        for split_factor in (1, 2):
            store, source = self._store_source(corpus_dir)
            source.pairs(store.users[0])
            assert store._open_shards and source._cache

            model = SkipGramModel(num_locations=80, embedding_dim=8, rng=0)
            pipeline = StepPipeline(
                _fast_config(split_factor=split_factor), model, source, root=7,
                ledger=PrivacyLedger(delta=2e-4, sampling_probability=0.3),
            )
            with ShardedExecutor(max_workers=2) as executor:
                pipeline.prepare_for(executor)
                assert not store._open_shards, split_factor
                assert not source._cache, split_factor

    def test_worker_death_while_coordinator_held_a_map(
        self, corpus, corpus_dir, tmp_path
    ):
        from repro.data.store import ShardedCheckinStore

        config = _fast_config()
        serial = _train(corpus, config, "serial")

        store = ShardedCheckinStore(corpus_dir)
        store.history(store.users[0])  # coordinator holds a live map
        marker = tmp_path / "kill-one-worker"
        marker.touch()
        with ShardedExecutor(max_workers=2, fault_marker=str(marker)) as executor:
            survived = _train(store, config, executor)
        assert not marker.exists()
        _assert_same_run(serial, survived)
