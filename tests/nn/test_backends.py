"""Cross-backend equivalence: the contract of :mod:`repro.nn.backends`.

The backend protocol's promise (docs/kernels.md) has three tiers:

1. **Ledger bit-identity** — every backend produces the exact same
   privacy accounting (epsilon to the last bit) because clipping runs in
   float64 through the shared :func:`clip_bucket_delta` and the noise/
   accounting stages never see backend-dependent values.
2. **Reference exactness** — the ``reference`` backend reproduces the
   pre-backend implementation bit for bit (golden hash below).
3. **Bounded drift** — ``fast`` embeddings stay within a
   documented float32 tolerance of the reference, across bucket sizes,
   negative-sample counts, and accumulation dtypes.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

import repro
from repro.core.bucket import (
    _local_update_spec,
    build_bucket_batches,
    model_updates_from_buckets,
)
from repro.exceptions import ConfigError
from repro.models.skipgram import SkipGramModel
from repro.nn.backends import (
    BACKEND_NAMES,
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    get_backend,
)
from tests.nn.per_batch_reference import per_batch_bucket_update

BACKENDS = list(BACKEND_NAMES)

#: Every (loss, negative sharing) pair the fused kernels run; the first
#: is the paper default.
MODES = [
    (loss, sharing)
    for loss in ("sampled_softmax", "negative_sampling", "nce")
    for sharing in ("batch", "per_pair")
]


def _over_modes(argnames, cases):
    """Parametrize ``loss, sharing, *argnames`` over ``MODES`` x ``cases``.

    The paper-default cells keep their plain ids (``[1-8]``, ``[fast]``);
    the other modes prefix theirs with ``loss-sharing-``.
    """
    params = []
    for loss, sharing in MODES:
        for case in cases:
            ident = "-".join(str(value) for value in case)
            if (loss, sharing) != MODES[0]:
                ident = f"{loss}-{sharing}-{ident}"
            params.append(pytest.param(loss, sharing, *case, id=ident))
    return pytest.mark.parametrize(("loss", "sharing", *argnames), params)


#: Documented worst-case embedding drift of the float32 fused path vs the
#: float64 reference for a few local steps (see docs/kernels.md).
FLOAT32_DRIFT = 2e-3

GOLDEN_EMBEDDINGS_SHA256 = (
    "368e48a87d843759ec207045f3ae999829bd155f1b78805eb08e6a0036c58ebe"
)
GOLDEN_EPSILON_REPR = "0.6906504340143358"


def _train(backend: str):
    config = repro.PLPConfig(
        max_steps=3, sampling_probability=0.3, backend=backend
    )
    raw = repro.generate_checkins(
        repro.SyntheticConfig(num_users=120, num_locations=80), rng=5
    )
    dataset = repro.CheckinDataset(repro.paper_preprocessing(raw))
    return repro.train(config, dataset, rng=11)


@pytest.fixture(scope="module")
def trained():
    """One trained model per native backend, same data and seed."""
    return {backend: _train(backend) for backend in BACKENDS}


def _one_bucket(backend, theta, batches, spec):
    """One bucket's delta, computed as a chunk of one."""
    (delta,) = backend.fused_multi_bucket_update(theta, [batches], spec)
    return delta


def _bucket_setup(
    num_negatives=16,
    num_pairs=300,
    seed=3,
    backend="reference",
    loss="sampled_softmax",
    sharing="batch",
):
    rng = np.random.default_rng(seed)
    model = SkipGramModel(
        num_locations=200,
        embedding_dim=32,
        num_negatives=num_negatives,
        loss=loss,
        negative_sharing=sharing,
        rng=np.random.default_rng(7),
        backend=backend,
    )
    pairs = rng.integers(0, 200, size=(num_pairs, 2))
    batches = build_bucket_batches(
        model, pairs, 32, rng=np.random.default_rng(17)
    )
    spec = _local_update_spec(model, 0.06, 0.5, "per_layer")
    return model, batches, spec


class TestGoldenReference:
    """The reference backend is the pre-backend implementation, exactly."""

    def test_reference_training_is_bit_identical_to_seed(self):
        model = repro.train(
            repro.PLPConfig(max_steps=4, sampling_probability=0.2), None, rng=11
        )
        digest = hashlib.sha256(
            np.ascontiguousarray(model.embeddings.matrix).tobytes()
        ).hexdigest()
        assert digest == GOLDEN_EMBEDDINGS_SHA256
        assert repr(model.privacy["epsilon"]) == GOLDEN_EPSILON_REPR


class TestLedgerBitIdentity:
    def test_privacy_ledger_identical_across_backends(self, trained):
        reference = trained["reference"].privacy
        for backend in BACKENDS[1:]:
            privacy = trained[backend].privacy
            assert set(privacy) == set(reference)
            for key, value in reference.items():
                assert repr(privacy[key]) == repr(value), (backend, key)

    def test_unclipped_norms_and_losses_are_finite(self):
        for backend in BACKENDS:
            for loss, sharing in MODES:
                model, batches, spec = _bucket_setup(
                    backend=backend, loss=loss, sharing=sharing
                )
                delta = _one_bucket(
                    model.backend, model.params, batches, spec
                )
                assert np.isfinite(delta.mean_loss), (backend, loss, sharing)
                assert np.isfinite(delta.unclipped_norm)
                assert delta.num_batches == len(batches)


class TestEmbeddingDrift:
    def test_trained_embeddings_within_tolerance(self, trained):
        reference = trained["reference"].embeddings.matrix
        for backend in BACKENDS[1:]:
            matrix = trained[backend].embeddings.matrix
            drift = float(np.max(np.abs(matrix - reference)))
            assert drift < FLOAT32_DRIFT, (backend, drift)
            assert drift > 0.0  # float32 really is a different path

    @_over_modes(
        ("num_pairs", "num_negatives"),
        [(pairs, neg) for pairs in (1, 33, 500) for neg in (1, 8, 40)],
    )
    def test_bucket_delta_equivalence(
        self, loss, sharing, num_pairs, num_negatives
    ):
        model_ref, batches_ref, spec = _bucket_setup(
            num_negatives, num_pairs, loss=loss, sharing=sharing
        )
        reference = _one_bucket(
            model_ref.backend, model_ref.params, batches_ref, spec
        )
        for backend in BACKENDS[1:]:
            model, batches, spec_b = _bucket_setup(
                num_negatives, num_pairs, backend=backend, loss=loss,
                sharing=sharing,
            )
            delta = _one_bucket(
                model.backend, model.params, batches, spec_b
            )
            for name in reference.rows:
                assert np.array_equal(delta.rows[name], reference.rows[name])
                assert np.allclose(
                    delta.values[name],
                    reference.values[name],
                    atol=FLOAT32_DRIFT,
                    rtol=0,
                ), (backend, name)

    def test_float64_accumulation_matches_reference_tightly(self):
        """The drift is float32 accumulation, not the fused algorithm:
        running the fast backend's kernels in float64 lands within
        rounding distance of the reference. (Sampled softmax only: the
        sigmoid losses read the float32 sigmoid table at any dtype.)"""

        class Float64Fast(FastBackend):
            accumulation_dtype = np.float64

        for sharing in ("batch", "per_pair"):
            model, batches, spec = _bucket_setup(sharing=sharing)
            reference = _one_bucket(
                model.backend, model.params, batches, spec
            )
            delta = _one_bucket(
                Float64Fast(), model.params, batches, spec
            )
            for name in reference.rows:
                assert np.array_equal(delta.rows[name], reference.rows[name])
                assert np.allclose(
                    delta.values[name],
                    reference.values[name],
                    atol=1e-9,
                    rtol=0,
                ), (sharing, name)


class TestFusedChunkContract:
    """Chunk batching is an optimization, never a semantic change."""

    @_over_modes(("backend",), [(backend,) for backend in BACKENDS])
    def test_multi_bucket_matches_single_bucket_bitwise(
        self, loss, sharing, backend
    ):
        rng = np.random.default_rng(3)
        model, _, spec = _bucket_setup(
            backend=backend, loss=loss, sharing=sharing
        )
        chunks = []
        for b in range(7):
            pairs = rng.integers(0, 200, size=(int(rng.integers(1, 160)), 2))
            chunks.append(
                build_bucket_batches(
                    model, pairs, 32, rng=np.random.default_rng(100 + b)
                )
            )
        multi = model.backend.fused_multi_bucket_update(
            model.params, chunks, spec
        )
        for i, batches in enumerate(chunks):
            single = _one_bucket(
                model.backend, model.params, batches, spec
            )
            for name in single.rows:
                assert np.array_equal(single.rows[name], multi[i].rows[name])
                assert np.array_equal(
                    single.values[name], multi[i].values[name]
                ), (backend, i, name)
            assert single.mean_loss == multi[i].mean_loss
            assert single.unclipped_norm == multi[i].unclipped_norm

    @_over_modes(("backend",), [(backend,) for backend in BACKENDS])
    def test_empty_bucket_in_chunk(self, loss, sharing, backend):
        model, batches, spec = _bucket_setup(
            backend=backend, loss=loss, sharing=sharing
        )
        deltas = model.backend.fused_multi_bucket_update(
            model.params, [[], batches, []], spec
        )
        assert deltas[0].num_batches == 0
        assert np.isnan(deltas[0].mean_loss)
        assert all(rows.size == 0 for rows in deltas[0].rows.values())
        assert deltas[1].num_batches == len(batches)
        assert deltas[2].num_batches == 0


class TestKernelInterface:
    """The backend interface is one compute method."""

    @pytest.mark.parametrize(("loss", "sharing"), MODES)
    def test_one_method_backend_matches_reference_bitwise(self, loss, sharing):
        class PerBatchBackend(KernelBackend):
            name = "per-batch"

            def fused_multi_bucket_update(self, theta, bucket_batches, spec):
                return [
                    per_batch_bucket_update(theta, batches, spec)
                    for batches in bucket_batches
                ]

        rng = np.random.default_rng(4)
        buckets = [
            rng.integers(0, 50, size=(size, 2)) for size in (40, 0, 7, 90)
        ]
        updates = {}
        for backend in (ReferenceBackend(), PerBatchBackend()):
            model = SkipGramModel(
                50, embedding_dim=8, num_negatives=5, loss=loss,
                negative_sharing=sharing, rng=np.random.default_rng(1),
                backend=backend,
            )
            updates[backend.name] = model_updates_from_buckets(
                model, model.params, buckets, 16, 0.5, 0.3,
                rngs=[np.random.default_rng(10 + i) for i in range(len(buckets))],
            )
        for ours, reference in zip(updates["per-batch"], updates["reference"]):
            for name in reference.rows:
                assert np.array_equal(ours.rows[name], reference.rows[name])
                assert ours.values[name].tobytes() == reference.values[name].tobytes()
            assert ours.num_batches == reference.num_batches
            assert np.array_equal(
                [ours.mean_loss, ours.unclipped_norm],
                [reference.mean_loss, reference.unclipped_norm],
                equal_nan=True,
            )


class TestRegistry:
    def test_unknown_backend_rejected(self):
        # "numba" was a deprecated spelling of "fast"; it is gone.
        for name in ("cuda", "numba"):
            with pytest.raises(ConfigError, match="unknown backend"):
                get_backend(name)

    def test_instances_are_cached_and_picklable(self):
        for backend in BACKENDS:
            instance = get_backend(backend)
            assert get_backend(backend) is instance
            clone = pickle.loads(pickle.dumps(instance))
            assert type(clone) is type(instance)

    def test_reference_is_float64(self):
        assert ReferenceBackend.accumulation_dtype == np.float64
        assert FastBackend.accumulation_dtype == np.float32
