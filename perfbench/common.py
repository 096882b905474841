"""Shared pieces: percentiles, output checks, memory, and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation between ranks.

    The same definition as ``numpy.percentile``'s default: rank
    ``p/100 * (n-1)`` in the sorted sample, interpolated linearly.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly above the ``p``-th percentile."""
    return count - 1 - math.floor(p / 100.0 * (count - 1))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def available_cores() -> int:
    """Cores this process may run on (the affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child.

    ``RUSAGE_CHILDREN`` reports the largest peak among children that have
    been waited for, so callers join their workers and servers first.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Tally:
    """Operations attempted and failed, plus named output checks."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)

    def operations(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> bool:
        """Record one output check; a failed check is a failed operation."""
        ok = bool(ok)
        self.checks[name] = ok
        self.operations(1, 0 if ok else 1)
        return ok

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(tally: Tally, metrics: dict[str, dict[str, Any]], detail: dict) -> None:
    """Print the detail report, then the one-line result as the last line."""
    print(json.dumps({"detail": detail, "checks": tally.checks}, default=str))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": metrics,
            },
            allow_nan=False,  # the result line must be strict JSON
        )
    )
    sys.stdout.flush()
