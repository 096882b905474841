"""Planar Laplace mechanism for geo-indistinguishability (Andres et al. 2013).

A mechanism is epsilon-geo-indistinguishable when, for any two locations
``x, x'`` within distance ``r`` of each other, the output distributions
differ by a factor of at most ``exp(epsilon * r)`` — a metric relaxation of
DP over the Euclidean plane. The canonical mechanism adds 2-D noise with
density proportional to ``exp(-epsilon * ||z||)``: draw an angle uniformly
and a radius from the Gamma(2, 1/epsilon) distribution (equivalently,
``r = -(1/eps) * (W_{-1}((p-1)/e) + 1)`` via the Lambert W function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigError
from repro.rng import RngLike, ensure_rng

_EARTH_RADIUS_METERS = 6_371_000.0


@dataclass(frozen=True, slots=True)
class PlanarLaplaceMechanism:
    """2-D Laplace noise achieving epsilon-geo-indistinguishability.

    Attributes:
        epsilon: privacy parameter per meter; typical values pair a
            desired level ``l`` with a radius ``r`` as ``epsilon = l / r``
            (e.g. l = ln(4) within r = 200 m).
    """

    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    def sample_radius(self, rng: RngLike = None) -> float:
        """Draw the noise radius (meters) via the inverse-CDF Lambert-W form."""
        from scipy.special import lambertw

        generator = ensure_rng(rng)
        p = generator.random()
        # C(r) = 1 - (1 + eps*r) * exp(-eps*r); invert with W_{-1}.
        w = lambertw((p - 1.0) / math.e, k=-1).real
        return -(1.0 / self.epsilon) * (w + 1.0)

    def perturb_xy(
        self, x: float, y: float, rng: RngLike = None
    ) -> tuple[float, float]:
        """Perturb a point given in planar (meter) coordinates."""
        generator = ensure_rng(rng)
        theta = generator.uniform(0.0, 2.0 * math.pi)
        radius = self.sample_radius(generator)
        return x + radius * math.cos(theta), y + radius * math.sin(theta)

    def perturb_latlon(
        self, latitude: float, longitude: float, rng: RngLike = None
    ) -> tuple[float, float]:
        """Perturb a (latitude, longitude) pair.

        The meter-scale noise vector is converted to degree offsets with
        the local-tangent-plane approximation (valid for the city-scale
        radii geo-ind uses).
        """
        if not -90.0 <= latitude <= 90.0:
            raise ConfigError(f"latitude out of range: {latitude}")
        if not -180.0 <= longitude <= 180.0:
            raise ConfigError(f"longitude out of range: {longitude}")
        generator = ensure_rng(rng)
        theta = generator.uniform(0.0, 2.0 * math.pi)
        radius = self.sample_radius(generator)
        dlat = (radius * math.sin(theta)) / _EARTH_RADIUS_METERS
        dlon = (radius * math.cos(theta)) / (
            _EARTH_RADIUS_METERS * max(math.cos(math.radians(latitude)), 1e-9)
        )
        return latitude + math.degrees(dlat), longitude + math.degrees(dlon)

    def expected_radius(self) -> float:
        """Mean displacement ``2 / epsilon`` of the planar Laplace noise."""
        return 2.0 / self.epsilon

    @staticmethod
    def for_protection_radius(level: float, radius_meters: float) -> "PlanarLaplaceMechanism":
        """Mechanism giving ``level`` indistinguishability within ``radius_meters``."""
        if level <= 0.0:
            raise ConfigError(f"level must be positive, got {level}")
        if radius_meters <= 0.0:
            raise ConfigError(f"radius must be positive, got {radius_meters}")
        return PlanarLaplaceMechanism(epsilon=level / radius_meters)
