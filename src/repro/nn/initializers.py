"""Weight initializers.

The skip-gram literature (word2vec) initializes the input embedding matrix
uniformly in ``[-0.5/dim, 0.5/dim]`` and the output (context) weights and
biases at zero; those are the defaults used by
:class:`repro.models.skipgram.SkipGramModel`.
"""

from __future__ import annotations

import numpy as np

from repro.rng import RngLike, ensure_rng


def uniform_embedding_init(
    shape: tuple[int, ...], rng: RngLike = None
) -> np.ndarray:
    """word2vec-style uniform init in ``[-0.5/dim, 0.5/dim)``.

    ``dim`` is taken to be the last axis of ``shape``.
    """
    generator = ensure_rng(rng)
    dim = shape[-1]
    half = 0.5 / dim
    return generator.uniform(-half, half, size=shape)


def zeros_init(shape: tuple[int, ...], rng: RngLike = None) -> np.ndarray:
    """All-zeros init (used for the context matrix W' and bias B')."""
    del rng  # accepted for interface uniformity
    return np.zeros(shape, dtype=np.float64)
