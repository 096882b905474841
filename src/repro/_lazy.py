"""Lazy package exports: each name loads its module on first access.

A package init that re-exports names from its submodules would import
all of them up front, so a serving process that only loads an artifact
would import the training engine too. Instead the package declares one
name -> module table and installs the PEP 562 hooks built here::

    _EXPORTS = {"PLPConfig": "repro.core.config", ...}
    __all__ = [*_EXPORTS]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``package.PLPConfig`` and ``from package import PLPConfig`` import
``repro.core.config`` on first use and then cache the object in the
package namespace, so later lookups are plain attribute reads and the
name resolves to the very object the leaf module defines.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of a lazy package.

    Args:
        package: the package's ``__name__`` (it must be importing).
        exports: exported name -> dotted name of the module defining it.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
