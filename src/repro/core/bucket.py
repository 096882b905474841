"""Per-bucket local training: ``ModelUpdateFromBucket`` (Algorithm 1, 15-22).

Starting from the current global model ``theta_t``, the bucket's pairs are
batched and trained with plain SGD; the resulting model delta
``g_h = Phi - theta_t`` is clipped — per-layer to ``C / sqrt(|theta|)``
(the paper's choice, McMahan & Andrew 2018) or globally to ``C`` — and
returned for the Gaussian sum query.

This module is the boundary between Algorithm 1's *randomness* and the
swappable compute backends (:mod:`repro.nn.backends`): the batch order and
every negative sample are drawn here, in the exact RNG sequence the
historical implementation used (one shuffle draw when batching starts,
then one negative draw per batch), and handed to the model's backend as a
fully-determined list of :class:`~repro.nn.backends.BucketBatch`. The
backend's fused kernel is then a pure function — every backend trains on
the same samples, and the reference backend reproduces pre-backend results
bit for bit.

Because every batch and negative is drawn here, each row a bucket reads
is known before the backend runs. Backends exploit that by compiling the
bucket once: the reference backend gathers the bucket's whole read set
from ``theta`` into compact float64 copies and precomputes every batch's
row-scatter plan in one vectorized pass (see
:mod:`repro.nn.backends.reference`); the fast backend compiles a whole
chunk of buckets into one compact float32 schedule the same way.
``theta`` is never written, so a chunk is safe to run against a pickled
copy in a process worker, and an exception mid-bucket cannot corrupt the
global model. The per-bucket cost stays proportional to the bucket's
data, not to the model size — the dominant cost at small grouping
factors where hundreds of buckets run per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError
from repro.models.skipgram import SkipGramModel
from repro.models.windowing import BatchIterator
from repro.nn.backends import BucketBatch, BucketDelta, LocalUpdateSpec
from repro.nn.parameters import ParameterSet
from repro.rng import RngLike, ensure_rng


@dataclass(slots=True)
class BucketUpdate:
    """Result of one bucket's local training pass (sparse representation).

    Attributes:
        rows: per-tensor row indices that received updates (unique).
        values: per-tensor update values aligned with ``rows``; the clipped
            delta is zero everywhere else.
        shapes: per-tensor full shapes (to materialize a dense delta).
        mean_loss: mean local-SGD batch loss (nan for an empty bucket).
        num_batches: local batches executed.
        unclipped_norm: joint l2 norm of the delta before clipping.
        wall_time_seconds: wall time of the bucket job that produced this
            update (set by the executor layer; 0.0 when constructed
            directly).
    """

    rows: dict[str, np.ndarray]
    values: dict[str, np.ndarray]
    shapes: dict[str, tuple[int, ...]]
    mean_loss: float
    num_batches: int
    unclipped_norm: float
    wall_time_seconds: float = 0.0

    @classmethod
    def from_delta(cls, delta: BucketDelta) -> "BucketUpdate":
        """Wrap a backend's :class:`~repro.nn.backends.BucketDelta`."""
        return cls(
            rows=delta.rows,
            values=delta.values,
            shapes=delta.shapes,
            mean_loss=delta.mean_loss,
            num_batches=delta.num_batches,
            unclipped_norm=delta.unclipped_norm,
        )

    @property
    def delta(self) -> dict[str, np.ndarray]:
        """The clipped delta as dense tensors (for tests and analysis)."""
        dense: dict[str, np.ndarray] = {}
        for name, shape in self.shapes.items():
            tensor = np.zeros(shape)
            if self.rows[name].size:
                tensor[self.rows[name]] = self.values[name]
            dense[name] = tensor
        return dense


def build_bucket_batches(
    model: SkipGramModel,
    bucket_pairs: np.ndarray,
    batch_size: int,
    local_update: str = "sgd",
    rng: RngLike = None,
) -> list[BucketBatch]:
    """Batch a bucket's pairs and pre-draw every negative sample.

    The draw sequence matches the historical interleaved loop exactly:
    :class:`~repro.models.windowing.BatchIterator` consumes its single
    shuffle draw when iteration starts, and one negative draw follows per
    batch, in batch order. Listing the batches first and then drawing
    negatives therefore produces the identical RNG stream — which is what
    lets the backends be draw-free without changing any result.

    Args:
        model: provides negative-sampling configuration.
        bucket_pairs: ``(n, 2)`` (target, context) pairs of the bucket.
        batch_size: pairs per local SGD batch (the paper's ``b``).
        local_update: ``"sgd"`` = shuffled multi-batch local SGD;
            ``"gradient"`` = one whole-bucket batch (classic DP-SGD).
        rng: randomness for batch shuffling and negative sampling.
    """
    generator = ensure_rng(rng)
    bucket_pairs = np.asarray(bucket_pairs, dtype=np.int64).reshape(-1, 2)
    if bucket_pairs.shape[0] == 0:
        return []
    if local_update == "gradient":
        raw_batches = [(bucket_pairs[:, 0], bucket_pairs[:, 1])]
    else:
        raw_batches = list(BatchIterator(bucket_pairs, batch_size, rng=generator))
    if model.negative_sharing == "batch":
        # One draw for every batch's shared negatives: filling a
        # (batches, num_negatives) block consumes the generator's words in
        # the same order as one size-``num_negatives`` draw per batch, so
        # the stream (and every downstream result) is unchanged.
        all_negatives = generator.integers(
            0,
            model.num_locations,
            size=(len(raw_batches), model.num_negatives),
            dtype=np.int64,
        )
        return [
            BucketBatch(targets=targets, contexts=contexts, negatives=negatives)
            for (targets, contexts), negatives in zip(raw_batches, all_negatives)
        ]
    return [
        BucketBatch(
            targets=targets,
            contexts=contexts,
            negatives=model.sample_negatives(len(targets), generator),
        )
        for targets, contexts in raw_batches
    ]


def model_updates_from_buckets(
    model: SkipGramModel,
    theta: ParameterSet,
    bucket_pairs_list: list[np.ndarray],
    batch_size: int,
    learning_rate: float,
    clip_bound: float,
    clipping: str = "per_layer",
    local_update: str = "sgd",
    rngs: list[RngLike] | None = None,
) -> list[BucketUpdate]:
    """Clipped model deltas for a chunk of buckets, in one backend call.

    ``theta`` is treated as **read-only**. Every bucket's batches and
    negatives are drawn first (bucket ``i`` from ``rngs[i]``, the same
    stream it would consume alone; see :func:`build_bucket_batches`), then
    the backend's
    :meth:`~repro.nn.backends.KernelBackend.fused_multi_bucket_update`
    runs all buckets as a pure function of those batches. A bucket's
    delta does not depend on which chunk it runs in, so a one-bucket list
    is the single-bucket case.

    Args:
        model: the skip-gram architecture (owns the kernel backend).
        theta: the global parameters ``theta_t``.
        bucket_pairs_list: per bucket, its ``(n, 2)`` (target, context)
            pairs.
        batch_size: pairs per local SGD batch (the paper's ``b``).
        learning_rate: local SGD learning rate ``eta``.
        clip_bound: the overall clipping magnitude ``C``.
        clipping: ``"per_layer"`` (paper) or ``"global"``.
        local_update: ``"sgd"`` = multi-batch local SGD (PLP, lines 17-19);
            ``"gradient"`` = one gradient step over the whole bucket data
            (the classic DP-SGD update, used by the baseline).
        rngs: per bucket, randomness for batch shuffling and negative
            sampling.

    Returns:
        One clipped delta (sparse) plus local-training diagnostics per
        bucket, in bucket order.
    """
    if clipping not in ("per_layer", "global"):
        raise ConfigError(f"unknown clipping mode {clipping!r}")
    if local_update not in ("sgd", "gradient"):
        raise ConfigError(f"unknown local_update mode {local_update!r}")
    if rngs is None:
        rngs = [None] * len(bucket_pairs_list)
    bucket_batches = [
        build_bucket_batches(
            model, pairs, batch_size, local_update=local_update, rng=rng
        )
        for pairs, rng in zip(bucket_pairs_list, rngs)
    ]
    spec = _local_update_spec(model, learning_rate, clip_bound, clipping)
    deltas = model.backend.fused_multi_bucket_update(theta, bucket_batches, spec)
    return [BucketUpdate.from_delta(delta) for delta in deltas]


def _local_update_spec(
    model: SkipGramModel, learning_rate: float, clip_bound: float, clipping: str
) -> LocalUpdateSpec:
    return LocalUpdateSpec(
        loss=model.loss_fn,
        loss_name=model.loss_name,
        num_locations=model.num_locations,
        learning_rate=learning_rate,
        clip_bound=clip_bound,
        clipping=clipping,
    )
