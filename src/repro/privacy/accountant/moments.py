"""Step-wise moments accountant.

The paper (Section 2.3, Section 4.1) tracks "the moments of the privacy
loss variable in each step of the descent". In modern terms the moments
accountant *is* an RDP accountant: each Sampled-Gaussian step contributes
its RDP curve, curves add across steps, and the composed curve converts to
``(epsilon, delta)`` on demand.

:class:`MomentsAccountant` supports heterogeneous steps — noise multiplier
and sampling rate may change between steps — which is what the paper's
future-work "flexible privacy budget allocation" would need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigError
from repro.privacy.accountant.rdp import (
    DEFAULT_RDP_ORDERS,
    compute_rdp_sampled_gaussian,
    load_special_functions,
    rdp_to_epsilon,
)


class MomentsAccountant:
    """Accumulates the RDP of Sampled-Gaussian steps and reports epsilon.

    Example:
        >>> accountant = MomentsAccountant()
        >>> for _ in range(100):
        ...     accountant.step(noise_multiplier=2.5, sampling_probability=0.06)
        >>> accountant.get_epsilon(delta=2e-4)  # doctest: +SKIP
        1.01...
    """

    def __init__(self, orders: Sequence[float] = DEFAULT_RDP_ORDERS) -> None:
        orders_arr = np.asarray(list(orders), dtype=np.float64)
        if orders_arr.size == 0:
            raise ConfigError("orders must be non-empty")
        if np.any(orders_arr <= 1.0):
            raise ConfigError("all Renyi orders must be > 1")
        self._orders = orders_arr
        self._rdp = np.zeros_like(orders_arr)
        self._steps = 0
        # Cache per-(sigma, q) single-step curves: training reuses one setting
        # for thousands of steps and recomputing the series each time is waste.
        self._curve_cache: dict[tuple[float, float], np.ndarray] = {}
        # Built with the privacy ledger, before step 1: the one-off SciPy
        # import is billed to no step's budget check.
        load_special_functions()

    @property
    def orders(self) -> np.ndarray:
        """The Renyi orders tracked by this accountant (read-only copy)."""
        return self._orders.copy()

    @property
    def total_rdp(self) -> np.ndarray:
        """The accumulated RDP curve (read-only copy)."""
        return self._rdp.copy()

    @property
    def steps(self) -> int:
        """Number of steps accumulated so far."""
        return self._steps

    def step(
        self,
        noise_multiplier: float,
        sampling_probability: float,
        count: int = 1,
    ) -> None:
        """Record ``count`` Sampled-Gaussian steps with the given parameters.

        Args:
            noise_multiplier: sigma of the step(s).
            sampling_probability: Poisson rate q of the step(s).
            count: number of identical steps to record at once.
        """
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        key = (float(noise_multiplier), float(sampling_probability))
        curve = self._curve_cache.get(key)
        if curve is None:
            curve = compute_rdp_sampled_gaussian(
                sampling_probability, noise_multiplier, 1, self._orders
            )
            self._curve_cache[key] = curve
        self._rdp = self._rdp + curve * count
        self._steps += count

    def epsilon_after(
        self,
        noise_multiplier: float,
        sampling_probability: float,
        delta: float,
        count: int = 1,
        conversion: str = "improved",
    ) -> float:
        """Epsilon if ``count`` more identical steps *were* recorded.

        A draw-free preview of :meth:`step` + :meth:`get_epsilon`: the
        hypothetical steps' RDP curve is added to a copy of the
        accumulated curve, leaving the accountant untouched. The curve is
        pulled from (and stored in) the same per-(sigma, q) cache that
        :meth:`step` uses, so a preview followed by the real step reports
        bitwise-identical epsilon — which is what lets the trainer decide
        *before* applying an update whether this step could cross the
        budget.
        """
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        if count == 0:
            return self.get_epsilon(delta, conversion)
        key = (float(noise_multiplier), float(sampling_probability))
        curve = self._curve_cache.get(key)
        if curve is None:
            curve = compute_rdp_sampled_gaussian(
                sampling_probability, noise_multiplier, 1, self._orders
            )
            self._curve_cache[key] = curve
        epsilon, _ = rdp_to_epsilon(
            self._orders, self._rdp + curve * count, delta, conversion
        )
        return epsilon

    def get_epsilon(self, delta: float, conversion: str = "improved") -> float:
        """Tightest epsilon for the accumulated steps at failure prob ``delta``.

        Zero recorded steps cost zero epsilon (the conversion formula alone
        would report a small positive constant for an all-zero RDP curve).
        """
        if self._steps == 0:
            return 0.0
        epsilon, _ = rdp_to_epsilon(self._orders, self._rdp, delta, conversion)
        return epsilon

    def get_optimal_order(self, delta: float) -> float:
        """The Renyi order at which the epsilon conversion is tightest."""
        _, order = rdp_to_epsilon(self._orders, self._rdp, delta)
        return order

    def reset(self) -> None:
        """Forget all accumulated steps (the order grid is kept)."""
        self._rdp = np.zeros_like(self._orders)
        self._steps = 0
