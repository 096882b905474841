"""Fused fast-path speedup over the reference backend (bench tier).

Runs the same interleaved per-backend ``local_train`` measurement the
benchmark report uses (:func:`repro.bench.measure_kernel_speedup`) and
gates on the fast backend's speedup. On a shared 2-vCPU host the
measured ratio at the default config has ranged from 2.3x to 3.6x since
the reference backend compiles each bucket into a plan; the floor sits
at the bottom of that band, so a run during a host slow spell can still
trip it, while any real regression of the fused path fails it.
"""

from __future__ import annotations

import pytest

from repro.bench import measure_kernel_speedup

pytestmark = pytest.mark.bench


def test_fast_backend_local_train_speedup():
    result = measure_kernel_speedup(repeats=3, seed=7)
    timings = result["local_train_seconds"]
    speedup = result["speedup_vs_reference"]["fast"]
    assert timings["fast"] < timings["reference"], result
    assert speedup >= 2.5, (
        "fast backend no longer delivers its documented speedup over "
        f"reference (measured {speedup:.2f}x, typical range 2.3-3.6x): "
        f"{result}"
    )
