"""Peak-RSS sampling.

:func:`peak_rss_bytes` reads the process's high-water resident set from
``getrusage`` — no psutil dependency; returns ``None`` where the platform
does not report it.
"""

from __future__ import annotations

import sys


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process in bytes, if knowable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; other
    platforms (or a missing ``resource`` module, e.g. Windows) yield
    ``None`` rather than a guess.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - platform reports nothing
        return None
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024
