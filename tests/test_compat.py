"""Sweep of the central deprecation machinery (repro._compat).

Every live shim must be registered in DEPRECATIONS, and every registered
shim must warn exactly once per use, naming its canonical replacement.
A shim added without an exerciser here fails the completeness test.
"""

from __future__ import annotations

import warnings

import pytest

import repro.api  # noqa: F401 - registers the serve() shims
import repro.cli  # noqa: F401 - registers the CLI flag shims
import repro.core.config  # noqa: F401 - registers the PLPConfig kwarg shims
import repro.core.engine.executors  # noqa: F401 - registers ParallelExecutor
import repro.core.engine.observers  # noqa: F401 - registers StepObserver
import repro.serving.metrics  # noqa: F401 - registers ServingObserver
from repro._compat import (
    DEPRECATIONS,
    register_deprecation,
    resolve_alias,
    warn_deprecated,
)
from repro.core.config import _DEPRECATED_ALIASES as _CONFIG_ALIASES
from repro.core.config import PLPConfig


def _use_config_alias(alias):
    canonical = _CONFIG_ALIASES[alias]

    def exercise():
        # Re-apply the canonical field's default so the value is valid.
        PLPConfig().with_overrides(**{alias: getattr(PLPConfig(), canonical)})

    return exercise


def _use_cli_flag(flag, value):
    def exercise():
        from repro.cli import _build_parser

        argv = ["train", "--synthetic", "--out", "m.npz", flag, value]
        _build_parser().parse_args(argv)

    return exercise


def _use_api_serve_path():
    # The asgi front end is mocked out: only the shim's warning matters.
    from unittest import mock

    with mock.patch("repro.serving.asgi.serve"):
        repro.api.serve("m.npz")


def _use_api_serve_include_counts():
    from unittest import mock

    with mock.patch("repro.serving.asgi.serve"):
        repro.api.serve(include_counts=True)


def _use_serve_model_path_flag():
    from repro.cli import _build_parser, _serve_config_from_args

    args = _build_parser().parse_args(["serve", "--model", "m.npz"])
    _serve_config_from_args(args)


def _use_observer_alias(module, name):
    def exercise():
        import importlib

        getattr(importlib.import_module(module), name)()

    return exercise


def _use_parallel_executor_name():
    from repro.core.engine import ShardedExecutor, make_executor

    executor, owned = make_executor("parallel", workers=1)
    assert isinstance(executor, ShardedExecutor) and owned
    executor.close()


def _use_parallel_executor_class():
    from repro.core.engine import ParallelExecutor, ShardedExecutor

    executor = ParallelExecutor(max_workers=2)
    assert isinstance(executor, ShardedExecutor) and executor.max_workers == 2


def _use_executor_parallel_flag():
    from repro.cli import _build_parser

    argv = ["train", "--synthetic", "--out", "m.npz", "--executor", "parallel"]
    assert _build_parser().parse_args(argv).executor == "sharded"


# One exerciser per DEPRECATIONS key; the completeness test fails when a
# new shim is registered without a matching entry here.
EXERCISERS = {
    **{
        f"PLPConfig({alias}=...)": _use_config_alias(alias)
        for alias in _CONFIG_ALIASES
    },
    "repro.api.serve(model_path)": _use_api_serve_path,
    "repro.api.serve(include_counts=...)": _use_api_serve_include_counts,
    "repro serve --model PATH": _use_serve_model_path_flag,
    "repro train --negatives": _use_cli_flag("--negatives", "4"),
    "repro train --metrics-jsonl": _use_cli_flag("--metrics-jsonl", "m.jsonl"),
    "repro train --executor parallel": _use_executor_parallel_flag,
    'executor="parallel"': _use_parallel_executor_name,
    "repro.core.engine.observers.StepObserver": _use_observer_alias(
        "repro.core.engine.observers", "StepObserver"
    ),
    "repro.serving.metrics.ServingObserver": _use_observer_alias(
        "repro.serving.metrics", "ServingObserver"
    ),
    "repro.core.engine.executors.ParallelExecutor": _use_parallel_executor_class,
}


class TestInventoryCompleteness:
    def test_every_registered_shim_has_an_exerciser(self):
        assert set(DEPRECATIONS) == set(EXERCISERS)

    def test_every_replacement_is_nonempty(self):
        for old, replacement in DEPRECATIONS.items():
            assert replacement, f"{old} registered without a replacement"


class TestEveryShimWarnsExactlyOnce:
    @pytest.mark.parametrize("old", sorted(EXERCISERS))
    def test_single_warning_names_replacement(self, old):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EXERCISERS[old]()
        deprecations = [
            item for item in caught if item.category is DeprecationWarning
        ]
        assert len(deprecations) == 1, (
            f"{old} emitted {len(deprecations)} DeprecationWarnings, want 1"
        )
        message = str(deprecations[0].message)
        # The replacement must be named; quoting and kwarg suffix may differ.
        replacement = DEPRECATIONS[old].removesuffix("=...").strip("'\"")
        assert replacement in message.replace("'", "")


class TestPrimitives:
    def test_warn_deprecated_message_shape(self):
        with pytest.warns(DeprecationWarning, match=r"old is deprecated; use new instead"):
            warn_deprecated("old", "new")

    def test_warn_deprecated_custom_verb(self):
        with pytest.warns(DeprecationWarning, match="subclass new"):
            warn_deprecated("old", "new", verb="subclass")

    def test_resolve_alias_passthrough_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_alias("canonical", {"a": "b"}, context="test") == "canonical"
        assert not caught

    def test_resolve_alias_rewrites_and_warns(self):
        with pytest.warns(DeprecationWarning, match="'b'"):
            assert resolve_alias("a", {"a": "b"}, context="test") == "b"

    def test_register_deprecation_is_idempotent(self):
        before = dict(DEPRECATIONS)
        for old, replacement in before.items():
            register_deprecation(old, replacement)
        assert DEPRECATIONS == before

    def test_observer_alias_subclass_warns_once(self):
        from repro.core.engine.observers import StepObserver

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            class _Legacy(StepObserver):  # noqa: F811 - exercise the shim
                pass

        deprecations = [
            item for item in caught if item.category is DeprecationWarning
        ]
        assert len(deprecations) == 1
        assert "subclass" in str(deprecations[0].message)

    def test_observer_subclass_instantiation_does_not_rewarn(self):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            from repro.core.engine.observers import StepObserver

            class _Legacy(StepObserver):
                pass

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _Legacy()
        assert not [
            item for item in caught if item.category is DeprecationWarning
        ]
