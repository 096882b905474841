"""The reference backend: float64, bit-for-bit the library's defining math.

Every array operation here is the exact sequence the pre-backend
implementation performed — same dtypes, same op order, same segment-sum
order — so a model trained through this backend is bit-identical to
historical results. The other backends are validated against it.

:meth:`ReferenceBackend.fused_multi_bucket_update` runs the buckets of a
chunk one by one. Each bucket is compiled into a :class:`_BucketPlan`
before its SGD loop. :mod:`repro.core.bucket` draws every batch and
negative before a backend runs, so every row a bucket reads is known up
front: the plan gathers that read set once, remaps every batch into it,
and compiles every batch's row scatters in one vectorized pass. The loop
then runs one SGD step per batch — :func:`_shared_step` for a batch-wide
negative set, :func:`_per_pair_step` otherwise — with no per-batch
``np.unique``, argsort or input coercion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.backends.base import (
    BIAS,
    CONTEXT,
    EMBEDDING,
    TENSOR_NAMES,
    BucketBatch,
    BucketDelta,
    KernelBackend,
    LocalUpdateSpec,
    clip_bucket_delta,
    empty_bucket_delta,
)
from repro.nn.functional import RowScatter, plan_row_scatters, unique_sorted
from repro.nn.losses import CandidateSamplingLoss
from repro.nn.parameters import ParameterSet


class _BucketPlan:
    """One bucket's batches compiled once, before its local SGD.

    - **Working copy.** ``params`` holds compact float64 copies of the
      bucket's whole read set, gathered from ``theta`` in one pass: the
      ``W`` rows named by any target, and the ``Wc``/``b`` rows named by
      any context or negative (one row set shared by both). Every row the
      loop reads or writes is there from the start, and ``theta`` is never
      written, so the bucket is safe to run against a shared snapshot.
    - **Remapped batches.** Every batch's targets, contexts and negatives
      are rewritten into compact row space with one ``np.searchsorted``
      per tensor.
    - **Scatter plans.** Every batch's row scatters (targets, contexts
      and negatives; or targets and candidates on the per-pair path) are
      compiled in one :func:`~repro.nn.functional.plan_row_scatters`
      pass: stable order, group starts and destination rows.

    The segment sums stay ``np.add.reduceat``: it sums a row's duplicate
    updates among themselves before adding them to the row. ``np.add.at``
    would add each duplicate into the row in turn — a different summation
    order with different bits — and the golden hash pins reduceat's order.

    ``steps`` holds one ``(step, operands, scatters)`` tuple per batch,
    in compact row space: :func:`_shared_step` with ``(targets, contexts,
    negatives)``, or :func:`_per_pair_step` with ``(targets, candidates)``,
    the ``[contexts | negatives]`` matrix built here once.
    """

    __slots__ = ("rows", "params", "steps")

    def __init__(self, theta: ParameterSet, batches: Sequence[BucketBatch]) -> None:
        targets = np.concatenate([batch.targets for batch in batches])
        contexts = np.concatenate([batch.contexts for batch in batches])
        negatives = np.concatenate([batch.negatives.ravel() for batch in batches])
        emb_rows = unique_sorted(targets)
        ctx_rows = unique_sorted(np.concatenate([contexts, negatives]))
        self.rows = {EMBEDDING: emb_rows, CONTEXT: ctx_rows, BIAS: ctx_rows}
        self.params = ParameterSet(
            {name: theta[name].take(rows, axis=0) for name, rows in self.rows.items()},
            copy=False,
        )

        targets = np.searchsorted(emb_rows, targets)
        contexts = np.searchsorted(ctx_rows, contexts)
        negatives = np.searchsorted(ctx_rows, negatives)
        inputs: list[tuple] = []
        segments: list[np.ndarray] = []
        pair_at = negative_at = 0
        for batch in batches:
            n, k = batch.targets.size, batch.negatives.size
            batch_targets = targets[pair_at : pair_at + n]
            batch_contexts = contexts[pair_at : pair_at + n]
            batch_negatives = negatives[negative_at : negative_at + k]
            pair_at += n
            negative_at += k
            if batch.shared:
                operands: tuple = (batch_targets, batch_contexts, batch_negatives)
                inputs.append((_shared_step, operands))
                segments += operands
            else:
                candidates = np.concatenate(
                    [batch_contexts[:, None], batch_negatives.reshape(n, -1)], axis=1
                )
                inputs.append((_per_pair_step, (batch_targets, candidates)))
                segments += [batch_targets, candidates.ravel()]

        scatters = plan_row_scatters(segments)
        self.steps: list[tuple] = []
        at = 0
        for step, operands in inputs:
            width = len(operands)
            self.steps.append((step, operands, scatters[at : at + width]))
            at += width

    def collect_delta(
        self, theta: ParameterSet
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Row indices and ``work - theta`` values for every read row."""
        values = {
            name: self.params[name] - theta[name][rows]
            for name, rows in self.rows.items()
        }
        rows = dict(self.rows)
        rows[BIAS] = rows[BIAS].copy()
        return rows, values


def _per_pair_step(
    loss: CandidateSamplingLoss,
    params: ParameterSet,
    targets: np.ndarray,
    candidates: np.ndarray,
    scatters: Sequence[RowScatter],
    learning_rate: float,
) -> float:
    """One in-place SGD step with per-pair negatives; returns the mean
    batch loss before the step.

    ``candidates`` is ``(batch, 1 + neg)``: each pair's context, then its
    negatives. ``scatters`` are the batch's compiled row scatters:
    targets, then the flattened candidates (used for both ``Wc`` and
    ``b``).
    """
    hidden = params[EMBEDDING][targets]  # (batch, dim)
    context_rows = params[CONTEXT][candidates]  # (batch, 1+neg, dim)
    logits = (
        np.einsum("bd,bkd->bk", hidden, context_rows) + params[BIAS][candidates]
    )

    output = loss.value_and_grad(logits)
    grad_logits = output.grad_logits  # already divided by batch size

    # dL/dWc[cand] = grad_logits * h ; dL/db[cand] = grad_logits
    grad_context_rows = grad_logits[:, :, None] * hidden[:, None, :]
    # dL/dh = sum_k grad_logits[k] * Wc[cand_k] ; dL/dW[target] = dL/dh
    grad_hidden = np.einsum("bk,bkd->bd", grad_logits, context_rows)

    scatters[0].add(params[EMBEDDING], -learning_rate * grad_hidden)
    batch, width = candidates.shape
    scatters[1].add(
        params[CONTEXT],
        (-learning_rate * grad_context_rows).reshape(batch * width, -1),
    )
    scatters[1].add(params[BIAS], (-learning_rate * grad_logits).ravel())
    return output.loss


def _shared_step(
    loss: CandidateSamplingLoss,
    params: ParameterSet,
    targets: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    scatters: Sequence[RowScatter],
    learning_rate: float,
) -> float:
    """One in-place SGD step with one negative set ``(neg,)`` shared by
    the batch; returns the mean batch loss before the step.

    ``scatters`` are the batch's compiled row scatters: targets, contexts,
    negatives.
    """
    context_matrix = params[CONTEXT]
    bias = params[BIAS]
    hidden = params[EMBEDDING][targets]  # (batch, dim)
    context_rows = context_matrix[contexts]  # (batch, dim)
    negative_rows = context_matrix[negatives]  # (neg, dim)

    positive_logits = np.einsum("bd,bd->b", hidden, context_rows) + bias[contexts]
    negative_logits = hidden @ negative_rows.T + bias[negatives]
    logits = np.concatenate([positive_logits[:, None], negative_logits], axis=1)
    output = loss.value_and_grad(logits)
    grad_logits = output.grad_logits  # (batch, 1 + neg), already / batch

    grad_positive = grad_logits[:, 0]  # (batch,)
    grad_negative = grad_logits[:, 1:]  # (batch, neg)

    # dL/dh = g_pos * Wc[ctx] + g_neg @ Wc[negs]
    grad_hidden = (
        grad_positive[:, None] * context_rows + grad_negative @ negative_rows
    )
    grad_context_pos = grad_positive[:, None] * hidden  # (batch, dim)
    grad_context_neg = grad_negative.T @ hidden  # (neg, dim)
    grad_bias_neg = grad_negative.sum(axis=0)  # (neg,)

    scatters[0].add(params[EMBEDDING], -learning_rate * grad_hidden)
    scatters[1].add(context_matrix, -learning_rate * grad_context_pos)
    scatters[2].add(context_matrix, -learning_rate * grad_context_neg)
    bias -= learning_rate * np.bincount(
        contexts, weights=grad_positive, minlength=bias.shape[0]
    )
    bias -= learning_rate * np.bincount(
        negatives, weights=grad_bias_neg, minlength=bias.shape[0]
    )
    return output.loss


def _bucket_update(
    theta: ParameterSet, batches: Sequence[BucketBatch], spec: LocalUpdateSpec
) -> BucketDelta:
    """One bucket's local SGD plus clipping (Algorithm 1, lines 15-22)."""
    if not batches:
        return empty_bucket_delta(theta)
    plan = _BucketPlan(theta, batches)
    work = plan.params
    losses: list[float] = []
    for step, operands, scatters in plan.steps:
        losses.append(step(spec.loss, work, *operands, scatters, spec.learning_rate))

    rows, values = plan.collect_delta(theta)
    unclipped_norm = clip_bucket_delta(values, spec.clip_bound, spec.clipping)
    return BucketDelta(
        rows=rows,
        values=values,
        shapes={name: theta[name].shape for name in TENSOR_NAMES},
        mean_loss=float(np.mean(losses)),
        num_batches=len(losses),
        unclipped_norm=unclipped_norm,
    )


class ReferenceBackend(KernelBackend):
    """Exact float64 kernels — the semantics every other backend must match."""

    name = "reference"
    accumulation_dtype = np.float64

    def fused_multi_bucket_update(
        self,
        theta: ParameterSet,
        bucket_batches: Sequence[Sequence[BucketBatch]],
        spec: LocalUpdateSpec,
    ) -> list[BucketDelta]:
        """Each bucket in turn, through its own compiled plan."""
        return [_bucket_update(theta, batches, spec) for batches in bucket_batches]
