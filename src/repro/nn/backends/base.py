"""The kernel-backend protocol: swappable compute for skip-gram training.

Algorithm 1 spends nearly all of its wall time in the per-bucket local SGD.
This module defines the seam that makes that compute path swappable: a
:class:`KernelBackend` implements one compute method,
:meth:`~KernelBackend.fused_multi_bucket_update`, which runs the local-SGD
pass plus the delta clipping of every bucket in a chunk (each bucket from
the same ``theta``) without materializing intermediate dense tensors.

Contract every backend must honor (enforced by the cross-backend
equivalence suite in ``tests/nn/test_backends.py``):

- **Accounting is bit-identical.** Backends never touch the privacy
  ledger, sigma, or the clip bound; clipping runs in float64 via
  :func:`clip_bucket_delta` (exact :mod:`repro.privacy.clipping`
  semantics) and noise draws are made by the caller from the step's
  derived RNG stream in a fixed order. Swapping backends therefore never
  changes ``(C, sigma)`` records, the epsilon trajectory, or the step
  count.
- **Backends are draw-free.** All randomness (batch shuffles, negative
  samples, noise) is drawn by the orchestration layer
  (:mod:`repro.core.bucket`, :mod:`repro.core.engine.stages`) *before* a
  backend runs, from ``rng.derive`` sub-streams. A backend is a pure
  function of its inputs, which keeps the serial and sharded executors and all
  backends on the same sample path.
- **Embeddings track the reference within the accumulation dtype.** The
  ``reference`` backend is the float64 definition of the math; lower
  precision backends must stay within a documented float32-scale
  tolerance of it on the same inputs (see ``docs/kernels.md``).

Backends must stay import-clean of :mod:`repro.core` and
:mod:`repro.models` (those layers import *us*) and picklable (the process
executor ships the model — backend included — to workers).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Sequence

import numpy as np

from repro.nn.losses import CandidateSamplingLoss
from repro.nn.parameters import ParameterSet
from repro.privacy.clipping import per_layer_clip_bound

# Canonical tensor names, in the paper's order theta = {W, W', B'}.
# (repro.models.skipgram re-exports these; they live here so backends
# never need to import the model layer.)
EMBEDDING = "W"
CONTEXT = "Wc"
BIAS = "b"
TENSOR_NAMES = (EMBEDDING, CONTEXT, BIAS)


@dataclass(frozen=True, slots=True)
class BucketBatch:
    """One local-SGD batch with its pre-drawn negatives.

    Attributes:
        targets: ``(n,)`` target tokens.
        contexts: ``(n,)`` positive context tokens.
        negatives: ``(neg,)`` shared negatives (``negative_sharing="batch"``)
            or ``(n, neg)`` per-pair negatives.
    """

    targets: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray

    @property
    def shared(self) -> bool:
        """Whether the negatives are one batch-wide shared set."""
        return self.negatives.ndim == 1


@dataclass(frozen=True, slots=True)
class LocalUpdateSpec:
    """Step-constant inputs of one bucket's fused local update.

    Attributes:
        loss: the (reference) candidate-sampling loss object.
        loss_name: loss identifier (lets backends build their own kernel
            form of the same loss).
        num_locations: vocabulary size ``L``.
        learning_rate: local SGD ``eta``.
        clip_bound: the overall clipping magnitude ``C``.
        clipping: ``"per_layer"`` (paper) or ``"global"``.
    """

    loss: CandidateSamplingLoss
    loss_name: str
    num_locations: int
    learning_rate: float
    clip_bound: float
    clipping: str


@dataclass(slots=True)
class BucketDelta:
    """A bucket's clipped model delta in sparse (rows, values) form.

    ``values`` are always float64 — the delta is what enters clipping,
    aggregation, and noise, all of which run at reference precision
    regardless of the backend's accumulation dtype.
    """

    rows: dict[str, np.ndarray]
    values: dict[str, np.ndarray]
    shapes: dict[str, tuple[int, ...]]
    mean_loss: float
    num_batches: int
    unclipped_norm: float


def empty_bucket_delta(theta: ParameterSet) -> BucketDelta:
    """The delta of a bucket with no data (all tensors untouched)."""
    rows: dict[str, np.ndarray] = {}
    values: dict[str, np.ndarray] = {}
    for name in TENSOR_NAMES:
        rows[name] = np.empty(0, dtype=np.int64)
        values[name] = np.empty((0, *theta[name].shape[1:]))
    return BucketDelta(
        rows=rows,
        values=values,
        shapes={name: theta[name].shape for name in TENSOR_NAMES},
        mean_loss=float("nan"),
        num_batches=0,
        unclipped_norm=0.0,
    )


def clip_bucket_delta(
    values: dict[str, np.ndarray], clip_bound: float, clipping: str
) -> float:
    """Clip sparse delta values in place; returns the unclipped joint norm.

    This is the single float64 clipping implementation every backend
    shares — Algorithm 1 line 21 (``per_layer`` per McMahan & Andrew 2018,
    or ``global``) applied to the non-zero rows of the delta, exactly as
    :mod:`repro.privacy.clipping` defines it. Keeping one implementation
    is what makes the sensitivity bound (and hence the ledger) identical
    across backends by construction.
    """
    squared = sum(float(np.sum(np.square(v))) for v in values.values())
    unclipped_norm = math.sqrt(squared)
    if clipping == "per_layer":
        bound = per_layer_clip_bound(clip_bound, len(values))
        for name in values:
            norm = float(np.linalg.norm(values[name]))
            if norm > bound:
                values[name] *= bound / norm
    else:
        if unclipped_norm > clip_bound:
            scale = clip_bound / unclipped_norm
            for name in values:
                values[name] *= scale
    return unclipped_norm


class KernelBackend(abc.ABC):
    """Swappable compute backend for skip-gram training.

    A backend implements one compute method,
    :meth:`fused_multi_bucket_update` — Algorithm 1 lines 15-22 for every
    bucket of a chunk. The step-level aggregate/noise helpers have shared
    float64 implementations here (overridable, but the RNG draw order of
    :meth:`add_noise` is part of the cross-backend contract and must not
    change).
    """

    #: Registry/config name of the backend.
    name: ClassVar[str] = "abstract"
    #: Dtype used for local-update accumulation (documentation of the
    #: precision contract; clipping and aggregation stay float64).
    accumulation_dtype: ClassVar[Any] = np.float64

    @abc.abstractmethod
    def fused_multi_bucket_update(
        self,
        theta: ParameterSet,
        bucket_batches: Sequence[Sequence[BucketBatch]],
        spec: LocalUpdateSpec,
    ) -> list[BucketDelta]:
        """Each bucket's local SGD plus clipping, in bucket order.

        Buckets are independent — each starts local SGD from the same
        ``theta``, which is read-only — so a backend may run them one by
        one (the reference does) or batch the per-step compute *across*
        them (the fast backend does). Element ``i`` is bucket ``i``'s
        delta, already clipped via :func:`clip_bucket_delta` semantics,
        with float64 values; an empty bucket gets
        :func:`empty_bucket_delta`. The result must not depend on how the
        executor chunks buckets: the same bucket gives the same bits
        alone or in any chunk.
        """

    # -- step-level helpers (shared float64 implementations) ----------------

    def aggregate(
        self,
        deltas: Iterable[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]],
        accumulators: dict[str, np.ndarray],
    ) -> None:
        """Scatter-add clipped sparse deltas into dense float64 accumulators.

        Deltas are consumed in the order given (bucket-index order), so
        the floating-point summation order — and therefore the result —
        is executor- and backend-independent.
        """
        for rows, values in deltas:
            for name, tensor_rows in rows.items():
                if tensor_rows.size:
                    accumulators[name][tensor_rows] += values[name]

    def add_noise(
        self,
        accumulators: dict[str, np.ndarray],
        noise_stddev: float,
        rng: np.random.Generator,
    ) -> None:
        """Add ``N(0, noise_stddev^2)`` to every accumulator entry in place.

        Draw order (tensor insertion order, full-shape float64 draws) is
        part of the cross-backend contract: the same step RNG stream must
        yield the same noise no matter which backend computed the deltas.
        """
        if noise_stddev <= 0.0:
            return
        for tensor in accumulators.values():
            tensor += rng.normal(0.0, noise_stddev, size=tensor.shape)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
