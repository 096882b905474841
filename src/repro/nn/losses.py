"""Candidate-sampling losses for skip-gram training.

All three losses operate on a *candidate logit matrix* of shape
``(batch, 1 + neg)`` whose column 0 is the true context location and whose
remaining columns are the sampled negatives. Each loss returns the mean
per-example loss together with the exact gradient w.r.t. the logits, from
which the skip-gram back-propagates into its three tensors.

The paper uses a **sampled softmax with a uniform sampling distribution**
("this is a necessity for preserving privacy, since estimating the
frequency distribution of locations from user-submitted data will cause
privacy leakage", Section 3.2). NCE and sigmoid negative sampling are
provided for the non-private ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.functional import log_softmax, sigmoid


@dataclass(frozen=True, slots=True)
class LossOutput:
    """Loss value and the gradient w.r.t. the candidate logits."""

    loss: float
    grad_logits: np.ndarray


class CandidateSamplingLoss:
    """Interface: compute loss and d(loss)/d(logits) for candidate logits."""

    def value_and_grad(self, logits: np.ndarray) -> LossOutput:
        """Mean loss over the batch and its gradient w.r.t. ``logits``.

        Args:
            logits: array of shape ``(batch, 1 + neg)``; column 0 is the
                positive (true context) candidate.
        """
        raise NotImplementedError

    @staticmethod
    def _validate(logits: np.ndarray) -> np.ndarray:
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[1] < 2:
            raise ConfigError(
                f"candidate logits must have shape (batch, 1 + neg), got {logits.shape}"
            )
        return logits


class SampledSoftmaxLoss(CandidateSamplingLoss):
    """Sampled softmax: full-softmax cross-entropy restricted to candidates.

    With a **uniform** candidate distribution the sampled-softmax logit
    correction ``log(expected_count)`` is identical for every candidate and
    cancels inside the softmax, so no correction term is needed — one more
    reason uniform sampling is convenient for the private setting.

    Loss per example: ``-log softmax(z)[0]``.
    Gradient: ``softmax(z) - onehot(0)``.
    """

    def value_and_grad(self, logits: np.ndarray) -> LossOutput:
        logits = self._validate(logits)
        batch = logits.shape[0]
        log_probs = log_softmax(logits, axis=1)
        loss = float(-(log_probs[:, 0].sum() / batch))
        grad = np.exp(log_probs)  # softmax, reusing the log-softmax pass
        grad[:, 0] -= 1.0
        grad /= batch
        return LossOutput(loss=loss, grad_logits=grad)


class NegativeSamplingLoss(CandidateSamplingLoss):
    """Sigmoid negative sampling (Mikolov et al. 2013, SGNS objective).

    Loss per example: ``-log sigmoid(z_0) - sum_j log sigmoid(-z_j)``.
    Gradient: ``sigmoid(z) - y`` with ``y = onehot(0)``.
    """

    def value_and_grad(self, logits: np.ndarray) -> LossOutput:
        logits = self._validate(logits)
        batch = logits.shape[0]
        grad = sigmoid(logits)
        # -log sigma(z0): stable via softplus(-z0); -log sigma(-zj) = softplus(zj)
        per_example = np.logaddexp(0.0, -logits[:, 0])
        per_example += np.logaddexp(0.0, logits[:, 1:]).sum(axis=1)
        loss = float(per_example.sum() / batch)
        grad[:, 0] -= 1.0
        grad /= batch
        return LossOutput(loss=loss, grad_logits=grad)


class NoiseContrastiveEstimationLoss(CandidateSamplingLoss):
    """NCE (Gutmann & Hyvarinen 2012) with a uniform noise distribution.

    Each candidate is classified data-vs-noise with the corrected logit
    ``z - log(k * p_noise)``; with uniform noise over ``L`` locations,
    ``p_noise = 1/L`` so the correction is the constant ``log(k / L)``.

    Args:
        num_locations: vocabulary size ``L`` defining the uniform noise
            distribution.
    """

    def __init__(self, num_locations: int) -> None:
        if num_locations < 1:
            raise ConfigError(f"num_locations must be >= 1, got {num_locations}")
        self.num_locations = int(num_locations)

    def value_and_grad(self, logits: np.ndarray) -> LossOutput:
        logits = self._validate(logits)
        batch, width = logits.shape
        num_negatives = width - 1
        correction = math.log(num_negatives / self.num_locations)
        corrected = logits - correction
        labels = np.zeros_like(corrected)
        labels[:, 0] = 1.0
        # Binary cross-entropy per candidate, stable form.
        loss_matrix = np.logaddexp(0.0, corrected) - labels * corrected
        loss = float(loss_matrix.sum(axis=1).sum() / batch)
        grad = sigmoid(corrected)
        grad -= labels
        grad /= batch
        return LossOutput(loss=loss, grad_logits=grad)


# -- batched in-place kernel forms ------------------------------------------
#
# The class-based losses above are the reference implementations: they
# coerce to float64 and favor numerical exactness. The fast backend needs
# the same math as a raw function over a whole *block* of batches, one
# batch per bucket: logits ``(B, 1 + neg, n)`` with the candidate axis in
# the middle (index 0 the positive) and one batch example per column. A
# kernel (a) preserves the block's dtype (float32 accumulation in the fast
# path), (b) works in place, and (c) lets the caller substitute an
# approximate sigmoid (the lookup table). ``make_loss_kernel`` is that
# backend-facing API; the backend-neutral contract is "same loss/gradient
# as the reference class within the dtype's precision", enforced by
# tests/nn/test_backends.py.

#: A loss kernel overwrites a ``(B, 1 + neg, n)`` logits block with the
#: per-example gradient d(loss_i)/d(logits) — not yet divided by ``n``;
#: the caller folds ``1/n`` into its step scale — and returns the ``(B,)``
#: float64 mean losses, one per batch. Batches never mix: every member's
#: values depend on its own slice only.
LossKernel = Callable[[np.ndarray], np.ndarray]


def _sampled_softmax_kernel(logits: np.ndarray) -> np.ndarray:
    n = logits.shape[2]
    peak = logits.max(1)
    np.subtract(logits, peak[:, None, :], out=logits)
    np.exp(logits, out=logits)
    denominator = logits.sum(1)
    np.divide(logits, denominator[:, None, :], out=logits)
    clamped = np.maximum(logits[:, 0], np.finfo(logits.dtype).tiny)
    np.log(clamped, out=clamped)
    # Sums in the block's dtype, then the -1/n scale in float64: each
    # member's loss is ``-float(sum) / n``, whatever the block's size.
    losses = clamped.sum(1).astype(np.float64)
    losses /= -n
    logits[:, 0] -= 1.0
    return losses


def _negative_sampling_kernel(
    logits: np.ndarray, sigmoid_fn: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    probs = sigmoid_fn(logits)
    tiny = np.finfo(logits.dtype).tiny
    per_example = np.log(np.maximum(probs[:, 0], tiny))
    per_example += np.log1p(-np.minimum(probs[:, 1:], 1.0 - 1e-7)).sum(1)
    np.copyto(logits, probs)
    logits[:, 0] -= 1.0
    return -per_example.mean(1, dtype=np.float64)


def _nce_kernel(
    logits: np.ndarray,
    num_locations: int,
    sigmoid_fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    # Corrected logits ``z - log(k / L)``, in place.
    logits -= logits.dtype.type(math.log((logits.shape[1] - 1) / num_locations))
    loss_block = np.logaddexp(0.0, logits, dtype=logits.dtype)
    loss_block[:, 0] -= logits[:, 0]
    losses = loss_block.sum(1).mean(1, dtype=np.float64)
    np.copyto(logits, sigmoid_fn(logits))
    logits[:, 0] -= 1.0
    return losses


def make_loss_kernel(
    name: str,
    num_locations: int | None = None,
    sigmoid_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> LossKernel:
    """Backend-facing kernel form of :func:`make_loss`.

    Args:
        name: loss identifier (same names as :func:`make_loss`).
        num_locations: required for ``"nce"``.
        sigmoid_fn: sigmoid implementation for the sigmoid-based losses;
            defaults to the exact :func:`repro.nn.functional.sigmoid`. The
            fast backend passes its precomputed
            :class:`~repro.nn.functional.SigmoidTable` here.
    """
    if sigmoid_fn is None:
        sigmoid_fn = sigmoid
    if name == "sampled_softmax":
        return _sampled_softmax_kernel
    if name == "negative_sampling":
        return lambda logits: _negative_sampling_kernel(logits, sigmoid_fn)
    if name == "nce":
        if num_locations is None:
            raise ConfigError("nce loss requires num_locations")
        return lambda logits: _nce_kernel(logits, num_locations, sigmoid_fn)
    raise ConfigError(f"unknown loss {name!r}")


def make_loss(name: str, num_locations: int | None = None) -> CandidateSamplingLoss:
    """Factory by name: ``"sampled_softmax"``, ``"negative_sampling"``, ``"nce"``.

    Args:
        name: loss identifier.
        num_locations: required for ``"nce"`` (defines the noise distribution).
    """
    if name == "sampled_softmax":
        return SampledSoftmaxLoss()
    if name == "negative_sampling":
        return NegativeSamplingLoss()
    if name == "nce":
        if num_locations is None:
            raise ConfigError("nce loss requires num_locations")
        return NoiseContrastiveEstimationLoss(num_locations)
    raise ConfigError(f"unknown loss {name!r}")
