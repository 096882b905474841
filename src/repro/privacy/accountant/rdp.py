"""Renyi differential privacy of the Sampled Gaussian Mechanism (SGM).

This module implements, from scratch, the same mathematics that powers the
moments accountant in TF-Privacy and Opacus:

- ``compute_rdp_sampled_gaussian``: the RDP curve
  ``alpha -> RDP_alpha(SGM(q, sigma))`` for Poisson subsampling rate ``q``
  and noise multiplier ``sigma``, following Mironov (2017) and the
  subsampled analysis of Wang, Balle & Kasiviswanathan (2019) / Mironov,
  Talwar & Zhang (2019). Integer orders use the exact binomial expansion;
  fractional orders use the two-series erfc expansion, all in log space.
- ``rdp_to_epsilon``: conversion of a composed RDP curve to an
  ``(epsilon, delta)`` guarantee, using the improved bound of Canonne,
  Kamath & Steinke (2020) (with the classic Mironov bound available for
  comparison).

RDP composes additively across steps, which is what makes the accountant
tight: ``RDP(k steps) = k * RDP(1 step)`` order-by-order.

The series take their special functions from :mod:`scipy.special`, bound
once per order inside the function that runs it, so importing this module
(and ``repro``, and the serving stack) loads no SciPy.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigError

# Standard order grid used by TF-Privacy: dense fractional orders near 1
# (tight for large noise) plus integer orders up to 512 (tight for small
# noise / large q).
DEFAULT_RDP_ORDERS: tuple[float, ...] = tuple(
    [1.0 + x / 10.0 for x in range(1, 100)] + list(range(11, 64)) + [128.0, 256.0, 512.0]
)

_LOG_SERIES_CUTOFF = -40.0  # stop the fractional series once terms are ~e-40
_LOG_HALF = math.log(0.5)


def load_special_functions() -> None:
    """Import :mod:`scipy.special`, which the series below use.

    A one-off cost of about 0.1 s per process. Callers that time training
    or cap a worker's BLAS threads call this first, so the import (and
    the OpenBLAS that SciPy maps with it) happens before, not inside.
    """
    importlib.import_module("scipy.special")


def _log_add(log_a: float, log_b: float) -> float:
    """Stable ``log(exp(log_a) + exp(log_b))``."""
    if log_a == -math.inf:
        return log_b
    if log_b == -math.inf:
        return log_a
    high, low = (log_a, log_b) if log_a >= log_b else (log_b, log_a)
    return high + math.log1p(math.exp(low - high))

def _log_sub(log_a: float, log_b: float) -> float:
    """Stable ``log(exp(log_a) - exp(log_b))``; requires ``log_a >= log_b``."""
    if log_b == -math.inf:
        return log_a
    if log_b > log_a:
        raise ValueError("log_sub requires log_a >= log_b")
    if log_a == log_b:
        return -math.inf
    return log_a + math.log1p(-math.exp(log_b - log_a))


def _log_erfc(
    x: np.ndarray, log_ndtr: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Stable ``log(erfc(x))`` valid far into both tails (elementwise).

    ``log_ndtr`` is :func:`scipy.special.log_ndtr`, bound by the caller.
    """
    return math.log(2.0) + log_ndtr(-x * math.sqrt(2.0))


def _compute_log_a_int(q: float, sigma: float, alpha: int) -> float:
    """``log(A_alpha)`` for integer ``alpha`` via the exact binomial expansion.

    ``A_alpha = sum_{i=0}^{alpha} C(alpha, i) (1-q)^{alpha-i} q^i
    exp((i^2 - i) / (2 sigma^2))`` (Mironov et al. 2019, Corollary 11 /
    TF-Privacy ``_compute_log_a_int``), with ``log C(alpha, i)`` taken
    from log-gamma.
    """
    from scipy.special import gammaln

    log_a = -math.inf
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    log_gamma_alpha = gammaln(alpha + 1)
    for i in range(alpha + 1):
        log_term = (
            log_gamma_alpha
            - gammaln(i + 1)
            - gammaln(alpha - i + 1)
            + i * log_q
            + (alpha - i) * log_1mq
            + (i * i - i) / (2.0 * sigma**2)
        )
        log_a = _log_add(log_a, log_term)
    return log_a


def _compute_log_a_frac(q: float, sigma: float, alpha: float) -> float:
    """``log(A_alpha)`` for fractional ``alpha`` via the two-series expansion.

    Follows the derivation in Mironov, Talwar & Zhang (2019), Section 3.3
    (the same series implemented by TF-Privacy's ``_compute_log_a_frac``).
    The infinite series converges because its terms decay super-linearly;
    we truncate once both current terms fall below ``exp(_LOG_SERIES_CUTOFF)``
    relative weight.

    The terms are computed a block at a time with array ufuncs, which
    round exactly like the scalar expressions they replace; only the
    running log-sum, whose order fixes the result's bits, is folded one
    term at a time.
    """
    from scipy.special import binom, log_ndtr

    log_a0 = -math.inf  # first series (mass to the left of z0)
    log_a1 = -math.inf  # second series (mass to the right of z0)
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    sqrt2sigma = math.sqrt(2.0) * sigma
    two_sigma_sq = 2.0 * sigma**2
    if two_sigma_sq == 0.0:  # the scalar loop's first division raised here
        raise ZeroDivisionError("float division by zero")

    start, size = 0, 256
    while True:
        i = np.arange(start, start + size, dtype=np.int64)
        # Python-float semantics: inf - inf is a silent NaN, as in scalars.
        with np.errstate(all="ignore"):
            coef = binom(alpha, i)
            log_coef = np.array(
                [math.log(abs(c)) if c != 0.0 else -math.inf for c in coef.tolist()]
            )
            j = alpha - i
            log_t0 = log_coef + i * log_q + j * log_1mq
            log_t1 = log_coef + j * log_q + i * log_1mq
            log_e0 = _LOG_HALF + _log_erfc((i - z0) / sqrt2sigma, log_ndtr)
            log_e1 = _LOG_HALF + _log_erfc((z0 - j) / sqrt2sigma, log_ndtr)
            log_s0 = log_t0 + (i * i - i) / two_sigma_sq + log_e0
            log_s1 = log_t1 + (j * j - j) / two_sigma_sq + log_e1
            # Stop before a zero coefficient past alpha, or after a term
            # whose parts both fell below the cutoff (with i + 1 > alpha).
            stop_before = (coef == 0.0) & (i > alpha)
            stop_after = (
                np.where(log_s1 > log_s0, log_s1, log_s0) < _LOG_SERIES_CUTOFF
            ) & (i + 1 > alpha)
        stops = np.flatnonzero(stop_before | stop_after)
        count = size
        if stops.size:
            count = int(stops[0]) + (0 if stop_before[stops[0]] else 1)
        for s0, s1, positive in zip(
            log_s0[:count].tolist(),
            log_s1[:count].tolist(),
            (coef[:count] > 0.0).tolist(),
        ):
            if positive:
                log_a0 = _log_add(log_a0, s0)
                log_a1 = _log_add(log_a1, s1)
            else:
                log_a0 = _log_sub(log_a0, s0)
                log_a1 = _log_sub(log_a1, s1)
        if stops.size:
            return _log_add(log_a0, log_a1)
        start += size
        size = min(4 * size, 1 << 16)


def _rdp_single_order(q: float, sigma: float, alpha: float) -> float:
    """RDP of one SGM step at Renyi order ``alpha``."""
    if q == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    if q == 1.0:
        # No subsampling: plain Gaussian mechanism, RDP = alpha / (2 sigma^2).
        return alpha / (2.0 * sigma**2)
    if float(alpha).is_integer():
        log_a = _compute_log_a_int(q, sigma, int(alpha))
    else:
        log_a = _compute_log_a_frac(q, sigma, alpha)
    return log_a / (alpha - 1.0)


def compute_rdp_sampled_gaussian(
    q: float,
    noise_multiplier: float,
    steps: int = 1,
    orders: Sequence[float] = DEFAULT_RDP_ORDERS,
) -> np.ndarray:
    """RDP curve of ``steps`` compositions of the Sampled Gaussian Mechanism.

    Args:
        q: Poisson sampling probability per step (the paper's user sampling
            probability, also called the privacy amplification factor).
        noise_multiplier: sigma, the ratio of noise std to sensitivity.
        steps: number of composed steps (RDP adds linearly).
        orders: Renyi orders alpha (> 1) at which to evaluate the curve.

    Returns:
        Array of RDP values, one per order.

    Raises:
        ConfigError: on parameters outside their valid ranges.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"sampling probability must be in [0, 1], got {q}")
    if noise_multiplier < 0.0:
        raise ConfigError(f"noise_multiplier must be >= 0, got {noise_multiplier}")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    orders_arr = np.asarray(list(orders), dtype=np.float64)
    if orders_arr.size == 0:
        raise ConfigError("orders must be non-empty")
    if np.any(orders_arr <= 1.0):
        raise ConfigError("all Renyi orders must be > 1")
    rdp = np.array(
        [_rdp_single_order(q, noise_multiplier, float(a)) for a in orders_arr]
    )
    return rdp * steps


def rdp_to_epsilon(
    orders: Sequence[float],
    rdp: Sequence[float],
    delta: float,
    conversion: str = "improved",
) -> tuple[float, float]:
    """Convert an RDP curve to the tightest ``(epsilon, delta)`` guarantee.

    Args:
        orders: Renyi orders of the curve.
        rdp: RDP values, aligned with ``orders``.
        delta: target failure probability.
        conversion: ``"improved"`` uses the Canonne-Kamath-Steinke (2020)
            bound ``eps = rdp + log((alpha-1)/alpha) - (log delta + log alpha)
            / (alpha - 1)``; ``"classic"`` uses Mironov's original
            ``eps = rdp + log(1/delta) / (alpha - 1)``.

    Returns:
        ``(epsilon, optimal_order)`` — the minimum epsilon over orders and
        the order achieving it.

    Raises:
        ConfigError: for invalid delta or an unknown conversion name.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    if conversion not in ("improved", "classic"):
        raise ConfigError(f"unknown conversion {conversion!r}")
    orders_arr = np.asarray(list(orders), dtype=np.float64)
    rdp_arr = np.asarray(list(rdp), dtype=np.float64)
    if orders_arr.shape != rdp_arr.shape:
        raise ConfigError("orders and rdp must have equal length")

    if conversion == "classic":
        eps = rdp_arr + math.log(1.0 / delta) / (orders_arr - 1.0)
    else:
        eps = (
            rdp_arr
            + np.log((orders_arr - 1.0) / orders_arr)
            - (math.log(delta) + np.log(orders_arr)) / (orders_arr - 1.0)
        )
    # Epsilon can come out negative for very large noise; clamp at zero
    # (the guarantee is trivially (0, delta)-DP at worst... strictly, eps >= 0).
    eps = np.maximum(eps, 0.0)
    finite = np.isfinite(eps)
    if not np.any(finite):
        return math.inf, float(orders_arr[0])
    best = int(np.argmin(np.where(finite, eps, np.inf)))
    return float(eps[best]), float(orders_arr[best])


def compute_epsilon(
    q: float,
    noise_multiplier: float,
    steps: int,
    delta: float,
    orders: Sequence[float] = DEFAULT_RDP_ORDERS,
    conversion: str = "improved",
) -> float:
    """End-to-end epsilon of ``steps`` SGM iterations at rate ``q``, noise sigma.

    Convenience wrapper combining :func:`compute_rdp_sampled_gaussian` and
    :func:`rdp_to_epsilon`. This is the quantity the paper's privacy ledger
    reports via ``cumulative_budget_spent()``.
    """
    rdp = compute_rdp_sampled_gaussian(q, noise_multiplier, steps, orders)
    epsilon, _ = rdp_to_epsilon(orders, rdp, delta, conversion)
    return epsilon
