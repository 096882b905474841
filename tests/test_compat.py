"""Sweep of the central deprecation machinery (repro._compat).

Every live shim must be registered in DEPRECATIONS, and every registered
shim must warn exactly once per use, naming its canonical replacement.
A shim added without an exerciser here fails the completeness test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.nn.backends  # noqa: F401 - registers the backend="numba" shim
from repro._compat import DEPRECATIONS, register_deprecation, warn_deprecated
from repro.cli import main


def _use_numba_backend_name():
    from repro.nn.backends import FastBackend, get_backend

    assert isinstance(get_backend("numba"), FastBackend)


# One exerciser per DEPRECATIONS key; the completeness test fails when a
# new shim is registered without a matching entry here.
EXERCISERS = {
    'backend="numba"': _use_numba_backend_name,
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
        assert DEPRECATIONS[old] in str(deprecations[0].message)


class TestPrimitives:
    def test_warn_deprecated_message_shape(self):
        with pytest.warns(DeprecationWarning, match=r"old is deprecated; use new instead"):
            warn_deprecated("old", "new")

    def test_register_deprecation_is_idempotent(self):
        before = dict(DEPRECATIONS)
        for old, replacement in before.items():
            register_deprecation(old, replacement)
        assert DEPRECATIONS == before


class TestCliShowsDeprecations:
    """Python shows ``DeprecationWarning`` only for ``__main__`` by
    default; ``repro.cli.main`` shows the ones raised in repro modules."""

    def test_deprecated_spelling_warns_once_on_stderr(self, tmp_path):
        # A subprocess sees the real stderr and Python's default filters.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--synthetic",
             "--max-steps", "2", "--backend", "numba",
             "--out", str(tmp_path / "m.npz")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        named = [line for line in result.stderr.splitlines() if 'backend="fast"' in line]
        assert len(named) == 1, result.stderr

    def test_filter_is_scoped_to_the_command(self, tmp_path):
        before = list(warnings.filters)
        assert main(["generate", "--users", "20", "--locations", "10", "--clusters", "4",
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert warnings.filters == before
