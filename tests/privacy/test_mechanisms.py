"""Tests for repro.privacy.mechanisms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.privacy.mechanisms import GaussianMechanism


class TestGaussianMechanism:
    def test_stddev(self):
        mechanism = GaussianMechanism(noise_multiplier=2.0, sensitivity=0.5)
        assert mechanism.stddev == 1.0

    def test_zero_noise_is_identity(self):
        mechanism = GaussianMechanism(noise_multiplier=0.0)
        value = np.array([1.0, 2.0])
        assert np.array_equal(mechanism.add_noise(value, rng=0), value)

    def test_noise_statistics(self):
        mechanism = GaussianMechanism(noise_multiplier=2.0, sensitivity=1.0)
        noisy = mechanism.add_noise(np.zeros(200_000), rng=1)
        assert abs(noisy.mean()) < 0.05
        assert noisy.std() == pytest.approx(2.0, rel=0.02)

    def test_does_not_mutate_input(self):
        value = np.zeros(3)
        GaussianMechanism(noise_multiplier=1.0).add_noise(value, rng=0)
        assert np.array_equal(value, np.zeros(3))

    def test_epsilon_inverts_calibration(self):
        # Dwork & Roth, Theorem A.1: sigma = sqrt(2 ln(1.25 / delta)) / epsilon.
        sigma = math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 0.5
        mechanism = GaussianMechanism(noise_multiplier=sigma)
        assert mechanism.epsilon(1e-5) == pytest.approx(0.5)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ConfigError):
            GaussianMechanism(noise_multiplier=-1.0)
