"""The planned reference kernel is bit-identical to the per-batch loop.

``ReferenceBackend`` compiles each bucket into a plan
(one read-set gather, one vectorized scatter plan) before its SGD loop.
The oracle is the per-batch loop it replaced, frozen in
:mod:`tests.nn.per_batch_reference`. The golden hash pins only the default
configuration; this grid covers every configuration the plan handles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import _local_update_spec, build_bucket_batches
from repro.models.skipgram import SkipGramModel
from repro.nn.functional import plan_row_scatters
from tests.nn.per_batch_reference import _scatter_add_rows, per_batch_bucket_update

NUM_LOCATIONS = 60


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_bitwise_equal(planned, oracle):
    assert planned.rows.keys() == oracle.rows.keys()
    for name in oracle.rows:
        assert planned.rows[name].dtype == oracle.rows[name].dtype, name
        assert np.array_equal(planned.rows[name], oracle.rows[name]), name
        assert planned.values[name].shape == oracle.values[name].shape, name
        assert planned.values[name].tobytes() == oracle.values[name].tobytes(), name
    assert _bits(planned.mean_loss) == _bits(oracle.mean_loss)
    assert _bits(planned.unclipped_norm) == _bits(oracle.unclipped_norm)
    assert planned.num_batches == oracle.num_batches


@pytest.mark.parametrize("num_pairs", [1, 33, 500])
@pytest.mark.parametrize("clipping", ["per_layer", "global"])
@pytest.mark.parametrize("local_update", ["sgd", "gradient"])
@pytest.mark.parametrize("loss", ["sampled_softmax", "negative_sampling", "nce"])
@pytest.mark.parametrize("negative_sharing", ["batch", "per_pair"])
def test_planned_bucket_matches_per_batch_loop(
    negative_sharing, loss, local_update, clipping, num_pairs
):
    rng = np.random.default_rng(num_pairs)
    model = SkipGramModel(
        NUM_LOCATIONS,
        embedding_dim=12,
        num_negatives=5,
        loss=loss,
        negative_sharing=negative_sharing,
        rng=np.random.default_rng(1),
    )
    model.params["Wc"][...] = rng.normal(scale=0.3, size=model.params["Wc"].shape)
    model.params["b"][...] = rng.normal(scale=0.1, size=NUM_LOCATIONS)
    # Pairs drawn from a few locations repeat rows inside every batch.
    pairs = rng.integers(0, 9, size=(num_pairs, 2))
    batches = build_bucket_batches(
        model, pairs, 8, local_update=local_update, rng=np.random.default_rng(5)
    )
    spec = _local_update_spec(model, 0.5, 0.3, clipping)
    (planned,) = model.backend.fused_multi_bucket_update(model.params, [batches], spec)
    oracle = per_batch_bucket_update(model.params, batches, spec)
    _assert_bitwise_equal(planned, oracle)


def test_planned_bucket_leaves_theta_untouched():
    model = SkipGramModel(NUM_LOCATIONS, embedding_dim=6, rng=np.random.default_rng(2))
    before = {name: model.params[name].copy() for name in model.params}
    pairs = np.random.default_rng(3).integers(0, NUM_LOCATIONS, size=(40, 2))
    batches = build_bucket_batches(model, pairs, 8, rng=np.random.default_rng(4))
    spec = _local_update_spec(model, 0.5, 0.3, "per_layer")
    model.backend.fused_multi_bucket_update(model.params, [batches], spec)
    for name, tensor in before.items():
        assert np.array_equal(model.params[name], tensor)


@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    num_rows=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_row_scatter_plans_match_per_call_scatter(sizes, num_rows, seed):
    """One vectorized plan per segment adds the bits a per-call sort adds."""
    rng = np.random.default_rng(seed)
    segments = [rng.integers(0, num_rows, size=size) for size in sizes]
    values = [rng.normal(size=(size, 3)) for size in sizes]
    start = rng.normal(size=(num_rows, 3))
    planned, oracle = start.copy(), start.copy()
    for scatter, segment, update in zip(plan_row_scatters(segments), segments, values):
        scatter.add(planned, update)
        _scatter_add_rows(oracle, segment, update)
    assert planned.tobytes() == oracle.tobytes()
