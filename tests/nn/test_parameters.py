"""Tests for repro.nn.parameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.parameters import ParameterSet


@pytest.fixture()
def params() -> ParameterSet:
    return ParameterSet(
        {"W": np.arange(6, dtype=float).reshape(2, 3), "b": np.array([1.0, -1.0])}
    )


class TestConstruction:
    def test_copies_by_default(self, params):
        source = np.zeros((2, 2))
        param_set = ParameterSet({"x": source})
        param_set["x"][0, 0] = 9.0
        assert source[0, 0] == 0.0

    def test_no_copy_aliases(self):
        source = np.zeros((2, 2))
        param_set = ParameterSet({"x": source}, copy=False)
        param_set["x"][0, 0] = 9.0
        assert source[0, 0] == 9.0

    def test_casts_to_float64(self):
        param_set = ParameterSet({"x": np.array([1, 2], dtype=np.int32)})
        assert param_set["x"].dtype == np.float64


class TestMappingProtocol:
    def test_names_order(self, params):
        assert params.names() == ["W", "b"]

    def test_len_and_contains(self, params):
        assert len(params) == 2
        assert "W" in params
        assert "z" not in params

    def test_shapes(self, params):
        assert params.shapes() == {"W": (2, 3), "b": (2,)}

class TestVectorOps:
    def test_copy_is_deep(self, params):
        clone = params.copy()
        clone["W"][0, 0] = 100.0
        assert params["W"][0, 0] == 0.0

    def test_zeros_like(self, params):
        zeros = params.zeros_like()
        assert zeros.shapes() == params.shapes()
        assert all(not tensor.any() for _, tensor in zeros.items())

    def test_add_in_place(self, params):
        params.add_({"W": np.ones((2, 3)), "b": np.ones(2)}, scale=2.0)
        assert params["W"][0, 0] == 2.0
        assert params["b"][0] == 3.0

    def test_allclose(self, params):
        assert params.allclose(params.copy())
        other = params.copy()
        other["b"][0] += 1e-3
        assert not params.allclose(other)
