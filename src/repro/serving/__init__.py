"""Batched inference and serving for trained deployable models.

The stack, bottom to top:

- :mod:`repro.serving.api` — the versioned wire types
  (:class:`RecommendRequest` / :class:`RecommendResponse` /
  :class:`ModelRef` / :class:`ServingConfig`, wire v1).
- :mod:`repro.serving.registry` — :class:`ModelRegistry` loads ``.npz``
  deployable artifacts into warm recommenders (optionally memory-mapped
  so workers share one copy of θ) and publishes them with an atomic swap,
  many named models per registry (``name@version``).
- :mod:`repro.serving.ann` — :class:`ClusteredIndex`, the sublinear
  (k-means partitioned) top-k path with an ``nprobe`` recall knob.
- :mod:`repro.serving.batcher` — :class:`MicroBatcher` coalesces
  concurrent requests into single ``recommend_batch`` calls behind a
  bounded queue with explicit load shedding.
- :mod:`repro.serving.service` — :class:`RecommendService`, the
  transport-independent request/health/metrics/reload surface.
- :mod:`repro.serving.asgi` — the asyncio streams HTTP transport (behind
  ``repro serve``; :class:`BackgroundServer` embeds it in tests and
  benchmarks) with backpressure and 503 + ``Retry-After`` load shedding.
- :mod:`repro.serving.metrics` — the serving observer layer, built on the
  unified :class:`repro.observability.Observer` protocol and the shared
  :class:`repro.observability.MetricsRegistry`.

Serving performs no privacy accounting on purpose: the artifact was
produced under DP and every request is post-processing of it (see
``docs/serving.md``).
"""

from repro.serving.ann import ClusteredIndex
from repro.serving.api import (
    ModelRef,
    RecommendRequest,
    RecommendResponse,
    ServingConfig,
)
from repro.serving.asgi import AsyncRecommendServer, BackgroundServer
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import JsonlServingObserver, MetricsObserver
from repro.serving.registry import LoadedModel, ModelRegistry
from repro.serving.service import RecommendService

__all__ = [
    "AsyncRecommendServer",
    "BackgroundServer",
    "ClusteredIndex",
    "JsonlServingObserver",
    "LoadedModel",
    "MetricsObserver",
    "MicroBatcher",
    "ModelRef",
    "ModelRegistry",
    "RecommendRequest",
    "RecommendResponse",
    "RecommendService",
    "ServingConfig",
]
