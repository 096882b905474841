"""Central deprecation machinery: one place for every backward-compat shim.

Every shim registers here and warns through :func:`warn_deprecated`, so
the warning wording, the ``DeprecationWarning`` category, and the removal
policy live in exactly one place. The one live shim is the
``backend="numba"`` spelling of the fast kernel backend
(:func:`repro.nn.backends.get_backend`).

Removal policy
--------------
A deprecated symbol:

1. keeps working for at least **two further release cycles** (repository
   PR sequences) after the release that deprecated it;
2. emits exactly **one** :class:`DeprecationWarning` per use, naming the
   canonical replacement (never a silent alias, never a double warning);
3. is listed in :data:`DEPRECATIONS` so tooling — and the
   ``tests/test_compat.py`` sweep — can enumerate every live shim.

When a shim is removed, its ``DEPRECATIONS`` entry is removed in the same
commit; the test sweep fails on any shim that warns without being
registered or is registered without warning.
"""

from __future__ import annotations

import warnings

#: Inventory of every live deprecated symbol: ``old -> canonical``.
#: Keys are qualified enough to be unambiguous (``backend="numba"``);
#: values name the replacement a user should migrate to.
#: ``tests/test_compat.py`` exercises every entry.
DEPRECATIONS: dict[str, str] = {}


def register_deprecation(old: str, replacement: str) -> None:
    """Record a live shim in the :data:`DEPRECATIONS` inventory.

    Idempotent; modules register their shims at import time.
    """
    DEPRECATIONS[old] = replacement


def warn_deprecated(old: str, replacement: str) -> None:
    """Emit the canonical one-per-use deprecation warning.

    The warning points at the caller of the function that calls this one.

    Args:
        old: the deprecated spelling, as the user wrote it.
        replacement: the canonical replacement (named in the message).
    """
    warnings.warn(
        f"{old} is deprecated; use {replacement} instead",
        DeprecationWarning,
        stacklevel=3,
    )
