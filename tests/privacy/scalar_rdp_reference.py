"""The fractional-order RDP series as a scalar loop, frozen as a test oracle.

This is ``_compute_log_a_frac`` as it ran before its terms were computed a
block at a time: one ``special.binom`` and two ``special.log_ndtr`` calls
per term, each term folded into the running log-sums as soon as it is
made. The block version must reproduce it bit for bit, since the ledger's
epsilon (pinned by ``GOLDEN_EPSILON_REPR``) is built from these sums.

Nothing in the library imports this module.
"""

from __future__ import annotations

import math

from scipy import special

from repro.privacy.accountant.rdp import _LOG_SERIES_CUTOFF, _log_add, _log_sub


def _log_erfc(x: float) -> float:
    return math.log(2.0) + special.log_ndtr(-x * math.sqrt(2.0))


def scalar_log_a_frac(q: float, sigma: float, alpha: float) -> float:
    """``log(A_alpha)`` for fractional ``alpha``, one term per iteration."""
    log_a0 = -math.inf
    log_a1 = -math.inf
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    sqrt2sigma = math.sqrt(2.0) * sigma

    i = 0
    while True:
        coef = special.binom(alpha, i)
        if coef == 0.0 and i > alpha:
            break
        log_coef = math.log(abs(coef)) if coef != 0.0 else -math.inf
        j = alpha - i

        log_t0 = log_coef + i * log_q + j * log_1mq
        log_t1 = log_coef + j * log_q + i * log_1mq

        log_e0 = math.log(0.5) + _log_erfc((i - z0) / sqrt2sigma)
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / sqrt2sigma)

        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma**2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma**2) + log_e1

        if coef > 0.0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)

        i += 1
        if max(log_s0, log_s1) < _LOG_SERIES_CUTOFF and i > alpha:
            break

    return _log_add(log_a0, log_a1)
