"""File discovery, rule execution, and the dplint CLI.

Public entry points:

- :func:`lint_source` — lint one source string under a logical path
  (what the fixture tests use);
- :func:`lint_paths` — lint files and directory trees;
- :func:`main` — the CLI behind ``repro lint`` and
  ``python -m repro.analysis``.

Both CLI spellings share this module end to end — same flags
(:func:`repro.cli.add_lint_arguments`), same rule registry, same
renderers — so their exit codes are identical by construction and follow
linter convention: 0 clean, 1 violations found, 2 usage errors (unknown
rule, missing path, not a git checkout for ``--changed``).

The run has two passes. Per-module rules (DPL001-005) see one
:class:`~repro.analysis.astutils.ModuleContext` at a time; program rules
(DPL006-008, the dpflow layer) run once over the
:class:`~repro.analysis.flow.graph.Program` built from every parsed
module. Suppression matching differs accordingly: a per-module finding is
silenced by a directive on its own line, an interprocedural finding by a
directive on its report line *or any site of its witness trace* — the
reviewed hop clears the whole flow.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.astutils import ModuleContext
from repro.analysis.registry import ProgramRule, Rule, all_rules
from repro.analysis.suppressions import Suppressions, parse_suppressions
from repro.analysis.violations import RENDERERS, Violation

#: Pseudo-rule id attached to files that fail to parse. Not suppressible.
PARSE_ERROR_ID = "DPL000"

_NO_SUPPRESSIONS = Suppressions()


class UsageError(Exception):
    """Bad invocation (unknown rule id, nonexistent path)."""


def _select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    rules = all_rules()
    chosen = set(rules) if select is None else {r.upper() for r in select}
    dropped = set() if ignore is None else {r.upper() for r in ignore}
    unknown = (chosen | dropped) - set(rules)
    if unknown:
        raise UsageError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(available: {', '.join(rules)})"
        )
    return [rule for rule_id, rule in rules.items() if rule_id in chosen - dropped]


def _parse_error(path: str, error: SyntaxError) -> Violation:
    return Violation(
        rule_id=PARSE_ERROR_ID,
        rule_name="parse-error",
        path=path,
        line=error.lineno or 1,
        col=error.offset or 1,
        message=f"file does not parse: {error.msg}",
    )


def _module_violations(
    module: ModuleContext, suppressions: Suppressions, rules: Sequence[Rule]
) -> list[Violation]:
    violations: list[Violation] = []
    for rule in rules:
        if isinstance(rule, ProgramRule):
            continue
        if not rule.applies_to(module.logical):
            continue
        for violation in rule.check(module):
            if not suppressions.is_suppressed(violation.rule_id, violation.line):
                violations.append(violation)
    return violations


def _program_violations(
    modules: Sequence[ModuleContext],
    suppressions_by_path: dict[str, Suppressions],
    rules: Sequence[Rule],
) -> list[Violation]:
    program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
    if not program_rules or not modules:
        return []
    from repro.analysis.flow.graph import Program

    program = Program(list(modules))
    violations: list[Violation] = []
    for rule in program_rules:
        for violation in rule.check_program(program):
            if _trace_suppressed(violation, suppressions_by_path):
                continue
            violations.append(violation)
    return violations


def _trace_suppressed(
    violation: Violation, suppressions_by_path: dict[str, Suppressions]
) -> bool:
    """A directive at the sink line or any witness-trace site suppresses."""
    sites = [(violation.path, violation.line)]
    sites.extend((site.path, site.line) for site in violation.trace)
    return any(
        suppressions_by_path.get(path, _NO_SUPPRESSIONS).is_suppressed(
            violation.rule_id, line
        )
        for path, line in sites
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint one module given as source text.

    Program rules run over the single-module program, so fixture tests
    exercise DPL006-008 exactly like the multi-file path does.

    Args:
        source: the module source.
        path: logical path used for display, rule scoping, and sanctioned
            allowlists (e.g. ``"src/repro/core/engine/stages.py"``).
        rules: rules to run (default: all registered).
    """
    if rules is None:
        rules = _select_rules()
    try:
        module = ModuleContext.from_source(source, path)
    except SyntaxError as error:
        return [_parse_error(path, error)]
    suppressions = parse_suppressions(source)
    violations = _module_violations(module, suppressions, rules)
    violations.extend(
        _program_violations([module], {path: suppressions}, rules)
    )
    return sorted(violations, key=Violation.sort_key)


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
        else:
            raise UsageError(f"no such file or directory: {path}")
    return sorted(files)


def changed_files(cwd: str | Path = ".") -> set[str]:
    """Files changed vs ``HEAD`` plus untracked files, as posix paths.

    Powers ``--changed``: tracked modifications (staged or not) come from
    ``git diff --name-only HEAD``, brand-new files from ``git ls-files
    --others --exclude-standard``.
    """
    commands = (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    changed: set[str] = set()
    for command in commands:
        try:
            result = subprocess.run(
                command,
                cwd=str(cwd),
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            raise UsageError(
                f"--changed requires a git checkout: {detail.strip()}"
            ) from error
        changed.update(
            Path(line).as_posix()
            for line in result.stdout.splitlines()
            if line.strip()
        )
    return changed


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    only_changed: bool = False,
    cwd: str | Path = ".",
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``; violations in path order.

    With ``only_changed``, the *whole* tree under ``paths`` is still
    parsed — interprocedural rules need complete program context — but
    only violations located in git-changed files are reported, and
    per-module rules skip unchanged files entirely.
    """
    rules = _select_rules(select, ignore)
    changed: set[str] | None = None
    if only_changed:
        # git reports repo-relative paths; resolve both sides so absolute
        # and relative lint targets compare correctly.
        root = Path(cwd)
        changed = {
            (root / rel).resolve().as_posix() for rel in changed_files(cwd)
        }

    def is_changed(path: str) -> bool:
        return changed is None or Path(path).resolve().as_posix() in changed

    violations: list[Violation] = []
    modules: list[ModuleContext] = []
    suppressions_by_path: dict[str, Suppressions] = {}
    for file in discover_files(paths):
        path = file.as_posix()
        source = file.read_text(encoding="utf-8")
        try:
            module = ModuleContext.from_source(source, path)
        except SyntaxError as error:
            if is_changed(path):
                violations.append(_parse_error(path, error))
            continue
        suppressions = parse_suppressions(source)
        modules.append(module)
        suppressions_by_path[path] = suppressions
        if not is_changed(path):
            continue
        violations.extend(_module_violations(module, suppressions, rules))
    for violation in _program_violations(modules, suppressions_by_path, rules):
        if not is_changed(violation.path):
            continue
        violations.append(violation)
    return sorted(violations, key=Violation.sort_key)


def list_rules_text() -> str:
    """The ``--list-rules`` listing: id, slug, and protected invariant."""
    lines = []
    for rule_id, rule in all_rules().items():
        lines.append(f"{rule_id}  {rule.name}")
        lines.append(f"        {rule.invariant}")
        if rule.scope:
            lines.append(f"        scope: {', '.join(rule.scope)}")
    return "\n".join(lines)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(list_rules_text())
        return 0
    try:
        violations = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            only_changed=args.changed,
        )
    except UsageError as error:
        print(f"dplint: error: {error}", file=sys.stderr)
        return 2
    print(RENDERERS[args.format](violations))
    exit_code = 1 if violations else 0
    if args.sanitize:
        from repro.analysis.sanitizer import run_smoke

        if not run_smoke():
            exit_code = max(exit_code, 1)
    return exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.analysis``."""
    from repro.cli import add_lint_arguments

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "dplint: AST checks for the repo's differential-privacy and "
            "determinism invariants (see docs/static-analysis.md)"
        ),
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
