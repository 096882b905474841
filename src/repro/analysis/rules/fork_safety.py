"""DPL008: nothing fork/pickle-hostile is captured into specs or workers.

The sharded executor ships :class:`~repro.core._pairs.PairSourceSpec`
values and pre-derived ``SeedSequence`` material across the process
boundary — by construction, nothing else. This rule enforces that
construction program-wide: no lock, mmap handle, open file, socket,
thread, or live RNG object may appear in

1. a ``*SourceSpec(...)`` constructor call's arguments,
2. the arguments of a ``.submit(...)`` on an executor pool, or of a
   ``.as_completed(...)`` on a :class:`~repro.core.engine.pool.WorkerPool`
   (the jobs every caller hands the one process pool),
3. the ``initargs=`` tuple of a ``ProcessPoolExecutor(...)``, or the
   arguments of a ``WorkerPool(...)`` (its ``setup_args`` reach every
   worker), or
4. the declared fields of a ``*SourceSpec`` class body.

Matching is by identifier: every ``Name``/``Attribute``/keyword identifier
in the checked expression is normalized (leading/embedded underscores
stripped, lower-cased) and compared against the catalog's
``FORK_UNSAFE_TOKENS``; raw lower-cased names are also checked against
``FORK_UNSAFE_SUFFIXES`` (``shard_rng``, ``log_file``). ``seed`` and
``SeedSequence`` never match — shipping pre-derived seed material is the
whole point of the design.

These objects *may* unpickle or silently re-initialize (a fork inherits a
held lock; an mmap handle maps freed pages), so the static rule errs
loud; the runtime complement is dpsan's fork-safety assertions and the
worker-kill regression test over :class:`ShardedCheckinStore`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.astutils import ModuleContext
from repro.analysis.flow.catalog import DEFAULT_CATALOG, Catalog
from repro.analysis.registry import ProgramRule, register
from repro.analysis.violations import Violation

if TYPE_CHECKING:
    from repro.analysis.flow.graph import Program

_SPEC_SUFFIX = "SourceSpec"
_POOL_FACTORY = "ProcessPoolExecutor"
_WORKER_POOL = "WorkerPool"
_SUBMISSIONS = ("submit", "as_completed")


@register
class ForkPickleSafety(ProgramRule):
    rule_id = "DPL008"
    name = "fork-pickle-safety"
    invariant = (
        "only plain data and pre-derived seed material cross the process "
        "boundary; locks, mmap handles, open files, and live RNGs do not"
    )

    def __init__(self, catalog: Catalog = DEFAULT_CATALOG) -> None:
        self.catalog = catalog

    def check_program(self, program: "Program") -> list[Violation]:
        violations: list[Violation] = []
        for module in program.modules.values():
            violations.extend(self._check_module(module))
        return violations

    def _check_module(self, module: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                violations.extend(self._check_call(module, node))
            elif isinstance(node, ast.ClassDef) and node.name.endswith(
                _SPEC_SUFFIX
            ):
                violations.extend(self._check_spec_fields(module, node))
        return violations

    def _check_call(
        self, module: ModuleContext, call: ast.Call
    ) -> list[Violation]:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name is None:
            return []
        if name.endswith(_SPEC_SUFFIX):
            return self._check_payload(
                module, call, f"`{name}(...)` spec construction"
            )
        if name == _WORKER_POOL or (
            name in _SUBMISSIONS and isinstance(func, ast.Attribute)
        ):
            return self._check_payload(module, call, f"a `{name}(...)` worker payload")
        if name == _POOL_FACTORY:
            violations: list[Violation] = []
            for kw in call.keywords:
                if kw.arg == "initargs":
                    violations.extend(
                        self._flag_unsafe(
                            module,
                            kw.value,
                            "`ProcessPoolExecutor(initargs=...)`",
                        )
                    )
            return violations
        return []

    def _check_payload(
        self, module: ModuleContext, call: ast.Call, context: str
    ) -> list[Violation]:
        violations: list[Violation] = []
        for arg in call.args:
            violations.extend(self._flag_unsafe(module, arg, context))
        for kw in call.keywords:
            if kw.arg is not None and self._unsafe_identifier(kw.arg):
                violations.append(
                    self._build(module, kw.value, kw.arg, context)
                )
            violations.extend(self._flag_unsafe(module, kw.value, context))
        return violations

    def _check_spec_fields(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> list[Violation]:
        violations: list[Violation] = []
        for member in cls.body:
            if isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                if self._unsafe_identifier(member.target.id):
                    violations.append(
                        self._build(
                            module,
                            member,
                            member.target.id,
                            f"`{cls.name}` field declaration",
                        )
                    )
        return violations

    def _flag_unsafe(
        self, module: ModuleContext, expr: ast.AST, context: str
    ) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(expr):
            identifier: str | None = None
            if isinstance(node, ast.Name):
                identifier = node.id
            elif isinstance(node, ast.Attribute):
                identifier = node.attr
            if identifier is not None and self._unsafe_identifier(identifier):
                violations.append(self._build(module, node, identifier, context))
        return violations

    def _unsafe_identifier(self, identifier: str) -> bool:
        lowered = identifier.lower()
        normalized = lowered.replace("_", "")
        if normalized in {
            token.replace("_", "") for token in self.catalog.fork_unsafe_tokens
        }:
            return True
        return any(
            lowered.endswith(suffix)
            for suffix in self.catalog.fork_unsafe_suffixes
        )

    def _build(
        self, module: ModuleContext, node: ast.AST, identifier: str, context: str
    ) -> Violation:
        return self.program_violation(
            module.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            f"fork/pickle-unsafe identifier `{identifier}` captured into "
            f"{context}; locks, mmap handles, open files, and live RNGs "
            "must not cross the process boundary — ship plain data and "
            "pre-derived SeedSequence material instead",
        )
