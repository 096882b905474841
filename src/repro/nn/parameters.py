"""Named parameter sets.

A :class:`ParameterSet` is an ordered mapping from tensor name to NumPy
array with the few vector-space operations Algorithm 1 needs: copying
model state and accumulating updates into it.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np


class ParameterSet:
    """An ordered collection of named tensors sharing one dtype.

    The model state of record is float64 (the default): Algorithm 1's
    clipping, noise, and accounting all operate on float64 tensors. Kernel
    backends may hold *scratch* parameter sets in a lower precision
    (``dtype=np.float32``) for fused local updates; such sets never back
    the ledger directly.

    Construction copies the input arrays, so a ``ParameterSet`` never
    aliases caller memory unless explicitly asked to (``copy=False``).
    """

    def __init__(
        self,
        tensors: Mapping[str, np.ndarray],
        copy: bool = True,
        dtype: type = np.float64,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self._tensors: dict[str, np.ndarray] = {}
        for name, tensor in tensors.items():
            array = np.asarray(tensor, dtype=self.dtype)
            self._tensors[name] = array.copy() if copy else array

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, tensor: np.ndarray) -> None:
        self._tensors[name] = np.asarray(tensor, dtype=self.dtype)

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        """Tensor names, in insertion order."""
        return list(self._tensors)

    def items(self):
        """``(name, tensor)`` pairs, in insertion order."""
        return self._tensors.items()

    def as_dict(self) -> dict[str, np.ndarray]:
        """The underlying name -> tensor mapping (no copy; treat read-only)."""
        return self._tensors

    # -- vector-space operations ---------------------------------------------

    def copy(self) -> "ParameterSet":
        """Deep copy of all tensors."""
        return ParameterSet(self._tensors, copy=True, dtype=self.dtype)

    def astype(self, dtype: type) -> "ParameterSet":
        """A converted copy of this set in the given dtype."""
        return ParameterSet(self._tensors, copy=True, dtype=dtype)

    def zeros_like(self) -> "ParameterSet":
        """A ParameterSet of zeros with matching shapes."""
        return ParameterSet(
            {name: np.zeros_like(tensor) for name, tensor in self._tensors.items()},
            copy=False,
            dtype=self.dtype,
        )

    def add_(self, other: Mapping[str, np.ndarray], scale: float = 1.0) -> "ParameterSet":
        """In-place ``self += scale * other``; returns self for chaining."""
        for name, tensor in other.items():
            self._tensors[name] += scale * tensor
        return self

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each tensor."""
        return {name: tensor.shape for name, tensor in self._tensors.items()}

    def allclose(self, other: "ParameterSet", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Whether two parameter sets are element-wise close."""
        if self.names() != other.names():
            return False
        return all(
            np.allclose(self._tensors[name], other[name], rtol=rtol, atol=atol)
            for name in self._tensors
        )

    def __repr__(self) -> str:
        shapes = ", ".join(f"{name}:{tensor.shape}" for name, tensor in self.items())
        return f"ParameterSet({shapes})"
