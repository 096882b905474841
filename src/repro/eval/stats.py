"""Statistical significance testing.

The paper: "The improvements of PLP over DP-SGD passed the paired t-test
with significance value p < 0.01." :func:`paired_t_test` reproduces that
check over per-case or per-run paired outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigError


@dataclass(frozen=True, slots=True)
class PairedTestResult:
    """Outcome of a paired t-test."""

    statistic: float
    p_value: float
    mean_difference: float
    num_pairs: int

    def significant(self, alpha: float = 0.01) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def paired_t_test(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> PairedTestResult:
    """Two-sided paired t-test of ``sample_a`` against ``sample_b``.

    Args:
        sample_a: outcomes of method A (e.g. PLP accuracy per run).
        sample_b: paired outcomes of method B (e.g. DP-SGD, same runs).

    Returns:
        Test statistic, p-value, mean difference (A - B), and pair count.

    Raises:
        ConfigError: on mismatched lengths or fewer than two pairs.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"paired samples must match in length: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ConfigError("paired t-test needs at least two pairs")
    from scipy.stats import ttest_rel

    statistic, p_value = ttest_rel(a, b)
    return PairedTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        mean_difference=float(np.mean(a - b)),
        num_pairs=int(a.size),
    )
