"""Backend registry: named, cached, picklable kernel-backend instances.

Selection is by name through :func:`get_backend` (the same names
``PLPConfig.backend`` and the CLI's ``--backend`` accept):

- ``"reference"`` — exact float64 kernels, bit-identical to the
  pre-backend implementation. The semantic definition.
- ``"fast"`` — compact-gather float32 fused bucket updates with a
  precomputed sigmoid table. Same ledger bits, embeddings within float32
  tolerance of the reference.

Instances are stateless singletons, so handing one to a process-pool
worker pickles a class reference, nothing more.
"""

from __future__ import annotations

from repro.exceptions import ConfigError
from repro.nn.backends.base import (
    BIAS,
    CONTEXT,
    EMBEDDING,
    TENSOR_NAMES,
    BucketBatch,
    BucketDelta,
    KernelBackend,
    LocalUpdateSpec,
    clip_bucket_delta,
    empty_bucket_delta,
)
from repro.nn.backends.fast import FastBackend
from repro.nn.backends.reference import ReferenceBackend

__all__ = [
    "BIAS",
    "CONTEXT",
    "EMBEDDING",
    "TENSOR_NAMES",
    "BucketBatch",
    "BucketDelta",
    "KernelBackend",
    "LocalUpdateSpec",
    "BACKEND_NAMES",
    "FastBackend",
    "ReferenceBackend",
    "clip_bucket_delta",
    "empty_bucket_delta",
    "get_backend",
]

#: Every backend name :func:`get_backend` builds.
BACKEND_NAMES = ("reference", "fast")

_instances: dict[str, KernelBackend] = {}


def get_backend(name: str) -> KernelBackend:
    """The cached backend instance for ``name``.

    Raises:
        ConfigError: for a name outside :data:`BACKEND_NAMES`.
    """
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    instance = _instances.get(name)
    if instance is None:
        cls = {"reference": ReferenceBackend, "fast": FastBackend}[name]
        instance = cls()
        _instances[name] = instance
    return instance
