"""Per-process control of the OpenBLAS thread pools numpy and scipy load.

numpy's bundled OpenBLAS starts one thread per core. A process-pool
worker forked from the coordinator inherits that width, so ``n`` workers
on ``n`` cores run ``n * n`` BLAS threads that spin-wait against each
other and turn parallel local SGD slower than serial.
:func:`limit_blas_threads` lowers the width in the calling process, and
:func:`blas_threads` reads it back.

``threadpoolctl`` is not a dependency: both functions find the OpenBLAS
shared objects already mapped into the process (``/proc/self/maps``) and
call their exported thread-control symbols through :mod:`ctypes`. The
symbol names vary by build (``openblas_set_num_threads``, numpy's
``scipy_openblas_set_num_threads64_``, scipy's
``scipy_openblas_set_num_threads``), so each known variant is tried.
Where no mapped library exports one (a host without ``/proc``, or a BLAS
other than OpenBLAS), both functions are no-ops that return ``None``.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable

__all__ = ["available_cores", "blas_threads", "limit_blas_threads"]

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

#: One library's ``(get_num_threads, set_num_threads)`` pair.
_Controls = tuple[Callable[[], int], Callable[[int], None]]


def available_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _thread_controls() -> list[_Controls]:
    """``(get, set)`` thread-count functions of every mapped OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = (line.split(maxsplit=5) for line in maps)
            paths = sorted(
                {
                    parts[5].strip()
                    for parts in fields
                    if len(parts) == 6 and "openblas" in os.path.basename(parts[5])
                }
            )
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        pair = _lookup(library)
        if pair is not None:
            controls.append(pair)
    return controls


def _lookup(library: ctypes.CDLL) -> _Controls | None:
    """The first known symbol pair the library exports, typed for ctypes."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def blas_threads() -> int | None:
    """The widest OpenBLAS thread pool in this process, or ``None``."""
    counts = [get() for get, _ in _thread_controls()]
    return max(counts) if counts else None


def limit_blas_threads(limit: int) -> int | None:
    """Cap every loaded OpenBLAS at ``limit`` threads (at least 1).

    Never raises a library's count: a lower inherited setting (say,
    ``OPENBLAS_NUM_THREADS=1`` in the environment) wins. Returns the new
    :func:`blas_threads`, or ``None`` where no OpenBLAS is found.
    """
    limit = max(1, int(limit))
    for get, set_ in _thread_controls():
        if get() > limit:
            set_(limit)
    return blas_threads()
