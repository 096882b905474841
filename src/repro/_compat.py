"""Central deprecation machinery: one place for every backward-compat shim.

Three shim families used to be copy-pasted around the codebase — the
``StepObserver`` / ``ServingObserver`` class aliases and the CLI /
:class:`~repro.core.config.PLPConfig` keyword-alias tables. They now all
route through this module so the warning wording, the ``DeprecationWarning``
category, and the removal policy live in exactly one place. Class aliases
(the observers, and ``ParallelExecutor`` for the process pool) are built
by :func:`deprecated_class_alias`.

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
#: Keys are qualified enough to be unambiguous (``PLPConfig(dim=...)``,
#: ``repro train --negatives``); values name the replacement a user should
#: migrate to. ``tests/test_compat.py`` exercises every entry.
DEPRECATIONS: dict[str, str] = {}


def register_deprecation(old: str, replacement: str) -> None:
    """Record a live shim in the :data:`DEPRECATIONS` inventory.

    Idempotent; modules register their shims at import time.
    """
    DEPRECATIONS[old] = replacement


def warn_deprecated(
    old: str,
    replacement: str,
    *,
    verb: str = "use",
    stacklevel: int = 2,
) -> None:
    """Emit the canonical one-per-use deprecation warning.

    Args:
        old: the deprecated spelling, as the user wrote it.
        replacement: the canonical replacement (named in the message).
        verb: "use" (default) or "subclass" — how to adopt the replacement.
        stacklevel: forwarded to :func:`warnings.warn` so the warning
            points at the caller's caller.
    """
    warnings.warn(
        f"{old} is deprecated; {verb} {replacement} instead",
        DeprecationWarning,
        stacklevel=stacklevel + 1,
    )


def resolve_alias(
    key: str,
    aliases: dict[str, str],
    *,
    context: str,
    stacklevel: int = 3,
) -> str:
    """Map one possibly-deprecated keyword to its canonical name.

    Shared by :meth:`PLPConfig.with_overrides` and any future kwargs-style
    surface: a key listed in ``aliases`` warns (once, naming the canonical
    replacement) and is rewritten; any other key passes through untouched.
    The caller keeps ownership of unknown-field / duplicate-field errors
    so its exception type and messages stay unchanged.

    Args:
        key: the keyword as the user wrote it.
        aliases: ``alias -> canonical`` table.
        context: label used in the warning (e.g. ``"PLPConfig override"``).

    Returns:
        The canonical key.
    """
    canonical = aliases.get(key)
    if canonical is None:
        return key
    warn_deprecated(f"{context} {key!r}", repr(canonical), stacklevel=stacklevel)
    return canonical


def deprecated_class_alias(
    name: str, module: str, target: type, replacement: str
) -> type:
    """Build a deprecated alias class of ``target``.

    The returned subclass warns on subclassing (``__init_subclass__``) and
    on direct instantiation, then behaves exactly like ``target``. The
    alias is registered in :data:`DEPRECATIONS` under ``module.name``.
    """
    register_deprecation(f"{module}.{name}", replacement)

    def __init_subclass__(cls, **kwargs: object) -> None:
        warn_deprecated(name, replacement, verb="subclass", stacklevel=3)
        super(alias, cls).__init_subclass__(**kwargs)  # type: ignore[misc]

    def __init__(self: object, *args: object, **kwargs: object) -> None:
        if type(self) is alias:
            warn_deprecated(name, replacement, stacklevel=2)
        super(alias, self).__init__(*args, **kwargs)  # type: ignore[misc]

    alias = type(
        name,
        (target,),
        {
            "__doc__": (
                f"Deprecated alias of :class:`{replacement}`.\n\n"
                f"    Kept so code importing ``{module}.{name}`` keeps "
                f"working; new code\n    should use :class:`{replacement}`. "
                f"Subclassing or instantiating this alias emits a\n"
                f"    :class:`DeprecationWarning` "
                f"(see :mod:`repro._compat` for the removal policy)."
            ),
            "__module__": module,
            "__init_subclass__": classmethod(__init_subclass__),
            "__init__": __init__,
        },
    )
    return alias
