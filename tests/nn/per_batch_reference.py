"""The reference backend's per-batch bucket loop, frozen as a test oracle.

This is the reference kernel as it ran before buckets were compiled into a
plan: every batch materializes its read set in a full-size copy-on-write
overlay of ``theta`` (one ``np.unique`` per tensor), computes its loss and
gradients with input coercion, and scatters its updates with a fresh
stable argsort per call. The loss math and the scatter-add are copied here
too, so the planned kernel is checked against the whole historical
arithmetic rather than against the helpers it shares.

Nothing in the library imports this module.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn.backends.base import (
    BIAS,
    CONTEXT,
    EMBEDDING,
    TENSOR_NAMES,
    BucketBatch,
    BucketDelta,
    LocalUpdateSpec,
    clip_bucket_delta,
)
from repro.nn.parameters import ParameterSet


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _logsumexp(x, axis=-1, keepdims=False):
    x = np.asarray(x, dtype=np.float64)
    maximum = np.max(x, axis=axis, keepdims=True)
    maximum = np.where(np.isfinite(maximum), maximum, 0.0)
    result = np.log(np.sum(np.exp(x - maximum), axis=axis, keepdims=True)) + maximum
    return result if keepdims else np.squeeze(result, axis=axis)


def _log_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    return x - _logsumexp(x, axis=axis, keepdims=True)


def _loss_value_and_grad(name: str, num_locations: int, logits: np.ndarray):
    """``(mean loss, grad_logits / batch)`` of the three candidate losses."""
    logits = np.asarray(logits, dtype=np.float64)
    batch, width = logits.shape
    if name == "sampled_softmax":
        log_probs = _log_softmax(logits, axis=1)
        loss = float(-np.mean(log_probs[:, 0]))
        grad = np.exp(log_probs)
        grad[:, 0] -= 1.0
        return loss, grad / batch
    if name == "negative_sampling":
        probs = _sigmoid(logits)
        positive_term = np.logaddexp(0.0, -logits[:, 0])
        negative_term = np.sum(np.logaddexp(0.0, logits[:, 1:]), axis=1)
        loss = float(np.mean(positive_term + negative_term))
        grad = probs.copy()
        grad[:, 0] -= 1.0
        return loss, grad / batch
    correction = math.log((width - 1) / num_locations)
    corrected = logits - correction
    labels = np.zeros_like(corrected)
    labels[:, 0] = 1.0
    loss_matrix = np.logaddexp(0.0, corrected) - labels * corrected
    loss = float(np.mean(np.sum(loss_matrix, axis=1)))
    grad = _sigmoid(corrected) - labels
    return loss, grad / batch


def _scatter_add_rows(matrix, rows, values):
    rows = np.asarray(rows)
    if rows.size == 0:
        return
    if rows.size == 1:
        matrix[rows[0]] += values[0]
        return
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    values_sorted = values[order]
    boundaries = np.empty(rows_sorted.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(rows_sorted[1:], rows_sorted[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    sums = np.add.reduceat(values_sorted, starts, axis=0)
    matrix[rows_sorted[starts]] += sums


class _CowOverlay:
    """Full-size copy-on-write overlay, materialized batch by batch."""

    def __init__(self, theta: ParameterSet) -> None:
        self._theta = theta
        work = {}
        for name in TENSOR_NAMES:
            source = theta[name]
            work[name] = (
                np.zeros_like(source) if source.ndim == 1 else np.empty_like(source)
            )
        self.params = ParameterSet(work, copy=False)
        self._mask = {
            name: np.zeros(theta[name].shape[0], dtype=bool) for name in TENSOR_NAMES
        }

    def materialize(self, name, rows):
        rows = np.unique(rows)
        mask = self._mask[name]
        fresh = rows[~mask[rows]]
        if fresh.size:
            self.params[name][fresh] = self._theta[name][fresh]
            mask[fresh] = True

    def collect_delta(self):
        rows_out, values_out = {}, {}
        for name in TENSOR_NAMES:
            rows = np.flatnonzero(self._mask[name])
            if rows.size:
                rows_out[name] = rows
                values_out[name] = self.params[name][rows] - self._theta[name][rows]
            else:
                rows_out[name] = np.empty(0, dtype=np.int64)
                values_out[name] = np.empty((0, *self._theta[name].shape[1:]))
        return rows_out, values_out


def _per_pair_step(spec, params, targets, contexts, negatives):
    targets = np.asarray(targets, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    candidates = np.concatenate([contexts[:, None], negatives], axis=1)
    hidden = params[EMBEDDING][targets]
    context_rows = params[CONTEXT][candidates]
    logits = np.einsum("bd,bkd->bk", hidden, context_rows) + params[BIAS][candidates]
    loss, grad_logits = _loss_value_and_grad(spec.loss_name, spec.num_locations, logits)
    grad_context_rows = grad_logits[:, :, None] * hidden[:, None, :]
    grad_hidden = np.einsum("bk,bkd->bd", grad_logits, context_rows)

    lr = spec.learning_rate
    _scatter_add_rows(params[EMBEDDING], targets, -lr * grad_hidden)
    candidates_flat = candidates.ravel()
    batch, width = candidates.shape
    _scatter_add_rows(
        params[CONTEXT],
        candidates_flat,
        (-lr * grad_context_rows).reshape(batch * width, -1),
    )
    _scatter_add_rows(params[BIAS], candidates_flat, (-lr * grad_logits).ravel())
    return loss


def _shared_step(spec, params, targets, contexts, negatives):
    targets = np.asarray(targets, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64).ravel()
    hidden = params[EMBEDDING][targets]
    context_rows = params[CONTEXT][contexts]
    negative_rows = params[CONTEXT][negatives]
    positive_logits = np.einsum("bd,bd->b", hidden, context_rows) + params[BIAS][contexts]
    negative_logits = hidden @ negative_rows.T + params[BIAS][negatives]
    logits = np.concatenate([positive_logits[:, None], negative_logits], axis=1)
    loss, grad_logits = _loss_value_and_grad(spec.loss_name, spec.num_locations, logits)
    grad_positive = grad_logits[:, 0]
    grad_negative = grad_logits[:, 1:]
    grad_hidden = grad_positive[:, None] * context_rows + grad_negative @ negative_rows

    lr = spec.learning_rate
    _scatter_add_rows(params[EMBEDDING], targets, -lr * grad_hidden)
    _scatter_add_rows(params[CONTEXT], contexts, -lr * (grad_positive[:, None] * hidden))
    _scatter_add_rows(params[CONTEXT], negatives, -lr * (grad_negative.T @ hidden))
    bias = params[BIAS]
    bias -= lr * np.bincount(contexts, weights=grad_positive, minlength=bias.shape[0])
    bias -= lr * np.bincount(
        negatives, weights=grad_negative.sum(axis=0), minlength=bias.shape[0]
    )
    return loss


def per_batch_bucket_update(
    theta: ParameterSet, batches: Sequence[BucketBatch], spec: LocalUpdateSpec
) -> BucketDelta:
    """One bucket's local SGD plus clipping, one batch at a time."""
    overlay = _CowOverlay(theta)
    work = overlay.params
    losses = []
    for batch in batches:
        context_rows = np.concatenate([batch.contexts, batch.negatives.ravel()])
        overlay.materialize(EMBEDDING, batch.targets)
        overlay.materialize(CONTEXT, context_rows)
        overlay.materialize(BIAS, context_rows)
        step = _shared_step if batch.shared else _per_pair_step
        losses.append(step(spec, work, batch.targets, batch.contexts, batch.negatives))
    rows, values = overlay.collect_delta()
    unclipped_norm = clip_bucket_delta(values, spec.clip_bound, spec.clipping)
    return BucketDelta(
        rows=rows,
        values=values,
        shapes={name: theta[name].shape for name in TENSOR_NAMES},
        mean_loss=float(np.mean(losses)) if losses else float("nan"),
        num_batches=len(losses),
        unclipped_norm=unclipped_norm,
    )
