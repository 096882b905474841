"""Tests for repro.nn.optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.nn.optimizers import DPAdam
from repro.nn.parameters import ParameterSet


def _quadratic_grad(params: ParameterSet) -> dict[str, np.ndarray]:
    """Gradient of f(x) = 0.5 ||x - 3||^2 per tensor."""
    return {name: params[name] - 3.0 for name in params.names()}


def _run(optimizer, steps: int = 300) -> ParameterSet:
    params = ParameterSet({"x": np.array([0.0, 10.0]), "y": np.array([[-5.0]])})
    for _ in range(steps):
        optimizer.step(params, _quadratic_grad(params))
    return params


class TestAdam:
    """The Adam update rule, as DPAdam applies it."""

    def test_converges_on_quadratic(self):
        params = _run(DPAdam(learning_rate=0.2), steps=500)
        assert np.allclose(params["x"], 3.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        params = ParameterSet({"x": np.array([0.0])})
        DPAdam(learning_rate=0.1).step(params, {"x": np.array([5.0])})
        assert params["x"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_scale_invariance_of_steps(self):
        # Adam steps depend on gradient sign/shape, not magnitude.
        small = ParameterSet({"x": np.array([0.0])})
        large = ParameterSet({"x": np.array([0.0])})
        DPAdam(learning_rate=0.1).step(small, {"x": np.array([1e-3])})
        DPAdam(learning_rate=0.1).step(large, {"x": np.array([1e3])})
        assert small["x"][0] == pytest.approx(large["x"][0], rel=1e-4)

    def test_reset(self):
        optimizer = DPAdam()
        params = ParameterSet({"x": np.array([0.0])})
        optimizer.step(params, {"x": np.array([1.0])})
        optimizer.reset()
        assert optimizer._step_count == 0
        assert optimizer._first_moment == {} and optimizer._second_moment == {}

    def test_rejects_bad_betas(self):
        with pytest.raises(ConfigError):
            DPAdam(beta1=1.0)
        with pytest.raises(ConfigError):
            DPAdam(beta2=-0.1)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            DPAdam(learning_rate=0.0)


class TestDPAdam:
    def test_is_adam_on_noisy_gradients(self):
        # The DP guarantee comes from the pre-noised input (post-processing),
        # so two steps follow the textbook bias-corrected Adam recurrence.
        lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
        params = ParameterSet({"x": np.array([0.0])})
        optimizer = DPAdam(learning_rate=lr, beta1=beta1, beta2=beta2, epsilon=eps)
        x, m, v = 0.0, 0.0, 0.0
        for t, grad in enumerate((2.0, -0.5), start=1):
            optimizer.step(params, {"x": np.array([grad])})
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad**2
            x -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
        assert params["x"][0] == pytest.approx(x, rel=1e-12)
