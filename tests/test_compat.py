"""Sweep of the central deprecation machinery (repro._compat).

Every live shim must be registered in DEPRECATIONS, and every registered
shim must warn exactly once per use, naming its canonical replacement.
A shim added without an exerciser here fails the completeness test.
"""

from __future__ import annotations

import warnings

import pytest

import repro.nn.backends  # noqa: F401 - registers the backend="numba" shim
from repro._compat import DEPRECATIONS, register_deprecation, warn_deprecated


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
