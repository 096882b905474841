"""The Gaussian mechanism (Dwork & Roth 2014, Theorem A.1) of Algorithm 1.

Training adds its noise in :mod:`repro.core.engine.stages`;
:class:`GaussianMechanism` is the standalone form, which the Monte Carlo
DP test samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True, slots=True)
class GaussianMechanism:
    """The Gaussian mechanism: adds ``N(0, (noise_multiplier * sensitivity)^2)``.

    In DP-SGD parlance ``noise_multiplier`` is the ratio sigma between the
    noise std and the clipping bound (the query sensitivity); the effective
    noise std is ``noise_multiplier * sensitivity``.

    Attributes:
        noise_multiplier: sigma, the noise std in units of sensitivity.
        sensitivity: global l2 sensitivity of the protected sum (C, or
            omega * C when a user's data may span omega buckets).
    """

    noise_multiplier: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_multiplier < 0.0:
            raise ConfigError(f"noise_multiplier must be >= 0, got {self.noise_multiplier}")
        if self.sensitivity < 0.0:
            raise ConfigError(f"sensitivity must be >= 0, got {self.sensitivity}")

    @property
    def stddev(self) -> float:
        """Effective noise standard deviation ``sigma * sensitivity``."""
        return self.noise_multiplier * self.sensitivity

    def add_noise(self, value: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return ``value`` perturbed with calibrated Gaussian noise."""
        generator = ensure_rng(rng)
        value = np.asarray(value, dtype=np.float64)
        if self.stddev == 0.0:
            return value.copy()
        return value + generator.normal(0.0, self.stddev, size=value.shape)

    def epsilon(self, delta: float) -> float:
        """Single-release epsilon via the classic tail bound, for reference.

        Inverts ``sigma = sqrt(2 ln(1.25/delta)) / epsilon``. Only meaningful
        for a single application of the mechanism; iterative training must
        use the moments accountant instead.
        """
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {delta}")
        if self.noise_multiplier == 0.0:
            return math.inf
        return math.sqrt(2.0 * math.log(1.25 / delta)) / self.noise_multiplier
