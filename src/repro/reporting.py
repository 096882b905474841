"""Plain-text reporting: a unicode sparkline of a training curve.

The library runs on plot-free machines (CI, servers), so training curves
render as text.
"""

from __future__ import annotations

from typing import Sequence

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line unicode sparkline of a numeric series.

    Non-finite values render as spaces; a constant series renders at
    mid-height.
    """
    import math

    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return " " * len(values)
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in values:
        if not math.isfinite(value):
            chars.append(" ")
        elif span == 0:
            chars.append(_BLOCKS[4])
        else:
            level = int((value - low) / span * (len(_BLOCKS) - 2)) + 1
            chars.append(_BLOCKS[level])
    return "".join(chars)
