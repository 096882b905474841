"""Poisson user sampling (Algorithm 1, line 5).

"Given a sampling probability q = m/N, each element of the user set is
subjected to an independent Bernoulli trial which determines whether the
element becomes part of the sample. As a consequence, the size of sampled
set of users is equal to m only in expectation. This is a necessary step in
correctly accounting for the privacy loss via the moments accountant."
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.exceptions import ConfigError
from repro.rng import RngLike, ensure_rng

T = TypeVar("T")


def poisson_sample(
    population: Sequence[T], probability: float, rng: RngLike = None
) -> list[T]:
    """Independent Bernoulli(q) inclusion of each population element.

    Args:
        population: the user set U.
        probability: inclusion probability q.
        rng: randomness source.

    Returns:
        The sampled subset, preserving population order. May be empty; its
        size is ``q * len(population)`` only in expectation — both are
        required for the moments-accountant analysis to apply.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigError(f"probability must be in [0, 1], got {probability}")
    generator = ensure_rng(rng)
    if probability == 0.0:
        return []
    if probability == 1.0:
        return list(population)
    mask = generator.random(len(population)) < probability
    return [item for item, included in zip(population, mask) if included]
