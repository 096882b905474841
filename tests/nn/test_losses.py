"""Tests for candidate-sampling losses, including finite-difference checks.

The gradient correctness of these losses is the foundation of the entire
training stack, so each loss's analytic gradient is verified against
numerical differentiation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.nn.losses import (
    NegativeSamplingLoss,
    NoiseContrastiveEstimationLoss,
    SampledSoftmaxLoss,
    make_loss,
    make_loss_kernel,
)


def _numerical_gradient(loss_fn, logits: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the loss w.r.t. the logits."""
    gradient = np.zeros_like(logits)
    for index in np.ndindex(logits.shape):
        bumped_up = logits.copy()
        bumped_up[index] += step
        bumped_down = logits.copy()
        bumped_down[index] -= step
        gradient[index] = (
            loss_fn.value_and_grad(bumped_up).loss
            - loss_fn.value_and_grad(bumped_down).loss
        ) / (2 * step)
    return gradient


_LOSSES = [
    SampledSoftmaxLoss(),
    NegativeSamplingLoss(),
    NoiseContrastiveEstimationLoss(num_locations=100),
]


@pytest.mark.parametrize("loss", _LOSSES, ids=lambda l: type(l).__name__)
class TestGradientCorrectness:
    def test_matches_finite_differences(self, loss):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=2.0, size=(4, 6))
        analytic = loss.value_and_grad(logits).grad_logits
        numerical = _numerical_gradient(loss, logits)
        assert np.allclose(analytic, numerical, atol=1e-6)

    def test_loss_finite_on_extreme_logits(self, loss):
        logits = np.array([[60.0, -60.0, 30.0], [-60.0, 60.0, 0.0]])
        output = loss.value_and_grad(logits)
        assert np.isfinite(output.loss)
        assert np.all(np.isfinite(output.grad_logits))

    def test_gradient_shape(self, loss):
        logits = np.zeros((3, 5))
        assert loss.value_and_grad(logits).grad_logits.shape == (3, 5)

    def test_rejects_single_column(self, loss):
        with pytest.raises(ConfigError):
            loss.value_and_grad(np.zeros((3, 1)))

    def test_rejects_one_dimensional(self, loss):
        with pytest.raises(ConfigError):
            loss.value_and_grad(np.zeros(5))


class TestSampledSoftmaxLoss:
    def test_uniform_logits_loss(self):
        # With equal logits over K candidates, loss is log(K).
        loss = SampledSoftmaxLoss().value_and_grad(np.zeros((2, 17))).loss
        assert loss == pytest.approx(np.log(17.0))

    def test_correct_prediction_low_loss(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        assert SampledSoftmaxLoss().value_and_grad(logits).loss < 1e-6

    def test_gradient_pulls_positive_up(self):
        logits = np.zeros((1, 5))
        grad = SampledSoftmaxLoss().value_and_grad(logits).grad_logits
        assert grad[0, 0] < 0  # descending on logit 0 increases it
        assert np.all(grad[0, 1:] > 0)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        grad = SampledSoftmaxLoss().value_and_grad(rng.normal(size=(3, 4))).grad_logits
        assert np.allclose(grad.sum(axis=1), 0.0)


class TestNegativeSamplingLoss:
    def test_zero_logits_loss(self):
        # -log(1/2) per candidate, (1 + neg) candidates.
        loss = NegativeSamplingLoss().value_and_grad(np.zeros((2, 5))).loss
        assert loss == pytest.approx(5 * np.log(2.0))

    def test_separating_logits_low_loss(self):
        logits = np.array([[30.0, -30.0, -30.0]])
        assert NegativeSamplingLoss().value_and_grad(logits).loss < 1e-6

    def test_gradient_signs(self):
        grad = NegativeSamplingLoss().value_and_grad(np.zeros((1, 4))).grad_logits
        assert grad[0, 0] < 0
        assert np.all(grad[0, 1:] > 0)


class TestNceLoss:
    def test_correction_shifts_optimum(self):
        # With uniform noise over L and k negatives, the corrected logit for
        # a candidate with true probability p is log(p L / k); the loss at
        # logits == correction (raw logit 0 -> corrected -log(k/L)) differs
        # from the NS loss, demonstrating the correction is applied.
        nce = NoiseContrastiveEstimationLoss(num_locations=50)
        ns = NegativeSamplingLoss()
        logits = np.zeros((1, 5))
        assert nce.value_and_grad(logits).loss != pytest.approx(
            ns.value_and_grad(logits).loss
        )

    def test_requires_positive_vocab(self):
        with pytest.raises(ConfigError):
            NoiseContrastiveEstimationLoss(num_locations=0)


class TestMakeLoss:
    def test_factory_types(self):
        assert isinstance(make_loss("sampled_softmax"), SampledSoftmaxLoss)
        assert isinstance(make_loss("negative_sampling"), NegativeSamplingLoss)
        assert isinstance(make_loss("nce", 10), NoiseContrastiveEstimationLoss)

    def test_nce_requires_vocab(self):
        with pytest.raises(ConfigError):
            make_loss("nce")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_loss("hinge")


class TestLossKernel:
    """The batched in-place kernel form against the reference classes."""

    @pytest.mark.parametrize("name", ["sampled_softmax", "negative_sampling", "nce"])
    def test_each_member_matches_reference(self, name):
        rng = np.random.default_rng(5)
        block = rng.normal(scale=2.0, size=(3, 6, 4))  # (B, 1 + neg, n)
        kernel = make_loss_kernel(name, num_locations=100)
        reference = make_loss(name, num_locations=100)
        grad = block.copy()
        losses = kernel(grad)
        assert losses.shape == (3,) and losses.dtype == np.float64
        for member in range(3):
            # The reference takes (n, 1 + neg) and divides by n.
            expected = reference.value_and_grad(block[member].T)
            assert np.isclose(losses[member], expected.loss, rtol=1e-12)
            assert np.allclose(
                grad[member].T / 4, expected.grad_logits, rtol=0, atol=1e-12
            )
