"""Tests for the corpus-store layer (repro.data.store).

Covers the CheckinStore protocol, the memory-mapped sharded store and its
writer, open_corpus normalization, and the synthetic materializers'
bit-parity with the in-memory generator.
"""

import numpy as np
import pytest

from repro.data.checkins import CheckinDataset
from repro.data.store import (
    CheckinStore,
    InMemoryCheckinStore,
    ShardedCheckinStore,
    ShardedStoreWriter,
    open_corpus,
    write_sharded_store,
)
from repro.data.synthetic import (
    SyntheticConfig,
    generate_checkins,
    materialize_synthetic_store,
)
from repro.exceptions import DataError
from repro.types import CheckIn


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(num_users=40, num_locations=50, num_clusters=5)
    return CheckinDataset(generate_checkins(config, rng=11))


@pytest.fixture()
def store_dir(tmp_path, dataset):
    path = tmp_path / "corpus"
    write_sharded_store(path, dataset, users_per_shard=16)
    return path


class TestInMemoryStore:
    def test_protocol_views(self, dataset):
        store = InMemoryCheckinStore(dataset)
        assert isinstance(store, CheckinStore)
        assert store.num_users == dataset.num_users
        assert store.num_checkins == dataset.num_checkins
        assert store.num_locations == dataset.num_locations
        assert list(store.users) == list(dataset.users)
        assert len(store) == dataset.num_users
        user = dataset.users[0]
        assert user in store
        assert store.history(user) == dataset.history(user)
        assert store.stats() == dataset.stats()

    def test_to_dataset_is_identity(self, dataset):
        store = InMemoryCheckinStore(dataset)
        assert store.to_dataset() is dataset

    def test_describe(self, dataset):
        described = InMemoryCheckinStore(dataset).describe()
        assert described["kind"] == "memory"
        assert described["num_users"] == dataset.num_users


class TestShardedStoreRoundTrip:
    def test_histories_round_trip_exactly(self, store_dir, dataset):
        with ShardedCheckinStore(store_dir) as store:
            assert sorted(store.users) == sorted(dataset.users)
            for user in dataset.users:
                assert store.history(user) == dataset.history(user)

    def test_stats_match_dataset(self, store_dir, dataset):
        with ShardedCheckinStore(store_dir) as store:
            assert store.stats() == dataset.stats()

    def test_multiple_shards_written(self, store_dir):
        shards = sorted(store_dir.glob("shard_*.npy"))
        assert len(shards) == 3  # 40 users / 16 per shard

    def test_lazy_shard_cache_is_bounded(self, store_dir, dataset):
        with ShardedCheckinStore(store_dir, max_open_shards=1) as store:
            for user in dataset.users:
                store.history(user)
            assert len(store._open_shards) <= 1

    def test_describe_and_dunder_views(self, store_dir, dataset):
        with ShardedCheckinStore(store_dir) as store:
            described = store.describe()
            assert described["kind"] == "sharded"
            assert described["num_shards"] == 3
            assert len(store) == dataset.num_users
            assert dataset.users[0] in store
            assert -1 not in store

    def test_unknown_user_raises(self, store_dir):
        with ShardedCheckinStore(store_dir) as store:
            with pytest.raises(DataError, match="unknown user"):
                store.history(10**9)

    def test_to_dataset_materializes(self, store_dir, dataset):
        with ShardedCheckinStore(store_dir) as store:
            materialized = store.to_dataset()
        assert materialized.num_checkins == dataset.num_checkins


class TestWriter:
    def test_refuses_existing_store(self, store_dir, dataset):
        with pytest.raises(DataError, match="refusing to overwrite"):
            write_sharded_store(store_dir, dataset)

    def test_rejects_duplicate_user(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path / "dup")
        writer.append(1, [5, 6], [0.0, 1.0])
        with pytest.raises(DataError, match="duplicate"):
            writer.append(1, [7], [2.0])

    def test_rejects_empty_history(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path / "empty")
        with pytest.raises(DataError):
            writer.append(1, [], [])

    def test_rejects_length_mismatch(self, tmp_path):
        writer = ShardedStoreWriter(tmp_path / "mismatch")
        with pytest.raises(DataError):
            writer.append(1, [5, 6], [0.0])

    def test_corrupt_manifest_rejected(self, store_dir):
        (store_dir / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            ShardedCheckinStore(store_dir)


class TestAppendBlock:
    def _block(self, num_users=23, seed=0):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 6, size=num_users)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rows = int(offsets[-1])
        times = np.concatenate(
            [np.sort(rng.uniform(0, 100, size=n)) for n in lengths]
        )
        return (
            np.arange(num_users) * 3,
            offsets,
            rng.integers(0, 9, size=rows),
            times,
            rng.normal(size=rows),
        )

    def test_writes_the_bytes_of_per_user_appends(self, tmp_path):
        users, offsets, locations, times, lat = self._block()
        for name in ("block", "single"):
            writer = ShardedStoreWriter(tmp_path / name, users_per_shard=5)
            writer.append(1, [4, 2], [0.0, 1.0])  # blocks start mid-shard
            if name == "block":
                writer.append_block(users, offsets, locations, times, lat)
            else:
                for i, user in enumerate(users):
                    rows = slice(offsets[i], offsets[i + 1])
                    writer.append(user, locations[rows], times[rows], lat[rows])
            writer.append(200, [3], [5.0])
            writer.finalize()
        names = sorted(p.name for p in (tmp_path / "single").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "block").iterdir())
        assert len(names) > 4
        for name in names:
            expected = (tmp_path / "single" / name).read_bytes()
            assert (tmp_path / "block" / name).read_bytes() == expected, name

    def test_rejects_duplicate_and_empty_users(self, tmp_path):
        users, offsets, locations, times, _ = self._block(4)
        writer = ShardedStoreWriter(tmp_path / "dup")
        writer.append(int(users[2]), [1], [0.0])
        with pytest.raises(DataError, match="duplicate"):
            writer.append_block(users, offsets, locations, times)
        empty = offsets.copy()
        empty[2] = empty[1]
        with pytest.raises(DataError, match="empty"):
            writer.append_block(users + 100, empty, locations, times)


class TestIterArrays:
    def _expected(self, store):
        users, locations, times, offsets = [], [], [], [0]
        for history in store:
            users.append(history.user)
            locations += [c.location for c in history.checkins]
            times += [c.timestamp for c in history.checkins]
            offsets.append(len(locations))
        return users, offsets, locations, times

    def test_blocks_flatten_the_histories_in_order(self, store_dir):
        store = ShardedCheckinStore(store_dir)
        blocks = list(store.iter_arrays())
        assert len(blocks) == store.describe()["num_shards"]
        users, offsets, locations, times = self._expected(store)
        got_users = np.concatenate([b[0] for b in blocks]).tolist()
        got_locations = np.concatenate([b[2] for b in blocks]).tolist()
        got_times = np.concatenate([b[3] for b in blocks]).tolist()
        bases = np.cumsum([0] + [b[2].size for b in blocks[:-1]])
        got_offsets = np.concatenate(
            [[0]] + [b[1][1:] + base for b, base in zip(blocks, bases)]
        ).tolist()
        assert got_users == users
        assert got_offsets == offsets
        assert got_locations == locations
        assert got_times == times

    def test_in_memory_blocks_are_bounded_and_flatten_in_order(
        self, dataset, monkeypatch
    ):
        import repro.data.store as store_module

        monkeypatch.setattr(store_module, "_BLOCK_ROWS", 40)
        store = InMemoryCheckinStore(dataset)
        blocks = list(store.iter_arrays())
        longest = max(len(history) for history in dataset)
        assert len(blocks) > 2
        for block_users, block_offsets, block_locations, block_times in blocks:
            assert block_offsets[0] == 0
            assert block_offsets[-1] == block_locations.size == block_times.size
            assert block_offsets.size == block_users.size + 1
            # A block closes with the user that reaches the bound.
            assert block_offsets[-2] < 40
            assert block_locations.size < 40 + longest
        users, offsets, locations, times = self._expected(store)
        assert np.concatenate([b[0] for b in blocks]).tolist() == users
        assert np.concatenate([b[2] for b in blocks]).tolist() == locations
        assert np.concatenate([b[3] for b in blocks]).tolist() == times
        bases = np.cumsum([0] + [b[2].size for b in blocks[:-1]])
        got_offsets = np.concatenate(
            [[0]] + [b[1][1:] + base for b, base in zip(blocks, bases)]
        ).tolist()
        assert got_offsets == offsets


class TestOpenCorpus:
    def test_store_passes_through(self, dataset):
        store = InMemoryCheckinStore(dataset)
        assert open_corpus(store) is store

    def test_dataset_wrapped(self, dataset):
        store = open_corpus(dataset)
        assert isinstance(store, InMemoryCheckinStore)
        assert store.to_dataset() is dataset

    def test_checkin_iterable_wrapped(self, dataset):
        store = open_corpus(dataset.all_checkins())
        assert store.num_users == dataset.num_users

    def test_directory_opens_sharded(self, store_dir, dataset):
        with open_corpus(str(store_dir)) as store:
            assert isinstance(store, ShardedCheckinStore)
            assert store.num_users == dataset.num_users

    def test_csv_loads_in_memory(self, tmp_path, dataset):
        from repro.data.io import save_checkins_csv

        path = tmp_path / "checkins.csv"
        save_checkins_csv(path, dataset.all_checkins())
        store = open_corpus(str(path))
        assert isinstance(store, InMemoryCheckinStore)
        assert store.num_users == dataset.num_users

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(DataError, match="corpus not found"):
            open_corpus(str(tmp_path / "nope"))

    def test_unsupported_type_rejected(self):
        with pytest.raises(DataError):
            open_corpus(42)


class TestSyntheticMaterialization:
    def test_session_profile_bit_identical_to_generator(self, tmp_path):
        config = SyntheticConfig(num_users=25, num_locations=40, num_clusters=4)
        reference = CheckinDataset(generate_checkins(config, rng=3))
        with materialize_synthetic_store(
            config, path=tmp_path / "s", rng=3, users_per_shard=10
        ) as store:
            assert sorted(store.users) == sorted(reference.users)
            for user in reference.users:
                assert store.history(user) == reference.history(user)
            assert store.stats() == reference.stats()

    def test_bulk_profile_is_valid_and_deterministic(self, tmp_path):
        config = SyntheticConfig(num_users=30, num_locations=40, num_clusters=4)
        with materialize_synthetic_store(
            config, path=tmp_path / "a", rng=5, profile="bulk", users_per_shard=8
        ) as first, materialize_synthetic_store(
            config, path=tmp_path / "b", rng=5, profile="bulk", users_per_shard=8
        ) as second:
            assert first.num_users == 30
            assert first.num_checkins == second.num_checkins
            for user in first.users:
                history = first.history(user)
                assert history == second.history(user)
                times = [checkin.timestamp for checkin in history.checkins]
                assert times == sorted(times)

    def test_unknown_profile_rejected(self, tmp_path):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="profile"):
            materialize_synthetic_store(
                SyntheticConfig(num_users=4), path=tmp_path / "x", profile="stream"
            )


class TestTrainingFromStore:
    def test_trainer_accepts_store_path_and_records_provenance(
        self, store_dir, dataset
    ):
        from repro.core.config import PLPConfig
        from repro.core.trainer import PrivateLocationPredictor

        config = PLPConfig(max_steps=2, sampling_probability=0.5, embedding_dim=8)
        from_path = PrivateLocationPredictor(config, rng=9)
        from_path.fit(str(store_dir))
        assert from_path.corpus_source is not None
        assert from_path.corpus_source["kind"] == "sharded"

        in_memory = PrivateLocationPredictor(config, rng=9)
        in_memory.fit(dataset)
        assert in_memory.corpus_source is not None
        assert in_memory.corpus_source["kind"] == "memory"
        np.testing.assert_array_equal(
            from_path.model.params["W"], in_memory.model.params["W"]
        )


#: Edge histories as stored (locations, timestamps); ids 100+ enter the
#: vocabulary mid-corpus.
_EDGE_HISTORIES = {
    9001: ([100], [0.0]),  # one check-in: no pairs
    9002: ([3, 101, 3, 8], [10.0, 10.0, 10.0, 10.0]),  # equal timestamps
    9003: ([4, 102, 9, 2, 6], [5e4, 0.0, 3e4, 1e5, 2e4]),  # unsorted
    9004: ([1, 2, 103, 4], [0.0, float("nan"), 100.0, 3e4]),  # a NaN
}


def _scan_corpus(kind, tmp_path, monkeypatch):
    """60 synthetic users with the edge users in the middle, as a store
    whose array blocks end mid-corpus."""
    config = SyntheticConfig(num_users=60, num_locations=45, num_clusters=4)
    synthetic = CheckinDataset(generate_checkins(config, rng=2))
    users = synthetic.users
    histories = {
        user: (synthetic.history(user).locations(), synthetic.history(user).timestamps())
        for user in users[:30]
    }
    histories.update(_EDGE_HISTORIES)
    histories.update(
        (user, (synthetic.history(user).locations(), synthetic.history(user).timestamps()))
        for user in users[30:]
    )
    if kind == "memory":
        import repro.data.store as store_module

        monkeypatch.setattr(store_module, "_BLOCK_ROWS", 150)
        return InMemoryCheckinStore(
            CheckinDataset(
                CheckIn(user=user, location=location, timestamp=timestamp)
                for user, (locations, times) in histories.items()
                for location, timestamp in zip(locations, times)
            )
        )
    # The writer stores rows as given, so 9003 stays unsorted on disk.
    writer = ShardedStoreWriter(tmp_path / "s", users_per_shard=7)
    for user, (locations, times) in histories.items():
        writer.append(user, locations, times)
    return writer.finalize()


class TestStoreScan:
    """The array scan builds the vocabulary and pairs that adding every
    stored check-in one by one builds (``sessionize`` +
    ``LocationVocabulary.add`` + ``pairs_from_sequence`` per history), on
    in-memory and sharded corpora alike."""

    @pytest.mark.parametrize("sessionize_training", [True, False])
    @pytest.mark.parametrize("window", [1, 3])
    def test_matches_per_history_scan(
        self, tmp_path, monkeypatch, window, sessionize_training
    ):
        for kind in ("memory", "sharded"):
            store = _scan_corpus(kind, tmp_path, monkeypatch)
            self._check_store(store, kind, window, sessionize_training)

    @staticmethod
    def _check_store(store, kind, window, sessionize_training):
        from repro.core._pairs import build_pair_source
        from repro.data.splitting import sessionize
        from repro.models.vocabulary import LocationVocabulary
        from repro.models.windowing import pairs_from_sequence

        blocks = [block[0].tolist() for block in store.iter_arrays()]
        assert len(blocks) > 2, kind
        # Blocks end mid-corpus, and one holds edge and synthetic users.
        assert any(
            set(_EDGE_HISTORIES) & set(block) and set(block) - set(_EDGE_HISTORIES)
            for block in blocks
        ), kind
        if kind == "sharded":
            times = store.history(9003).timestamps()
            assert times != sorted(times)

        vocabulary = LocationVocabulary()
        expected = {}
        for history in store:
            sequences = (
                [list(t.locations) for t in sessionize(history)]
                if sessionize_training
                else [history.locations()]
            )
            tokens = [[vocabulary.add(loc) for loc in seq] for seq in sequences]
            pairs = [pair for seq in tokens for pair in pairs_from_sequence(seq, window)]
            expected[history.user] = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        scanned, source = build_pair_source(store, window, sessionize_training)
        assert scanned.locations() == vocabulary.locations(), kind
        assert list(scanned.counts().items()) == list(vocabulary.counts().items())
        assert source.users == store.users
        for user in store.users:
            assert source.pair_count(user) == expected[user].shape[0], (kind, user)
            got = source.pairs(user)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected[user], err_msg=f"{kind} {user}")
        assert source.pair_count(9001) == 0
