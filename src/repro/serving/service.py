"""The recommendation service: registry + micro-batcher + observers.

:class:`RecommendService` is the transport-independent core of ``repro
serve``: the HTTP layers (and tests) call :meth:`recommend` /
:meth:`submit_future` / :meth:`healthz` / :meth:`metrics` /
:meth:`reload` directly. Requests are typed
:class:`~repro.serving.api.RecommendRequest` values (the micro-batcher
payloads are these objects, not ad-hoc tuples) funneled through the
:class:`~repro.serving.batcher.MicroBatcher` so concurrent queries are
scored in one ``recommend_batch`` pass, and every outcome is reported to
the registered :class:`~repro.observability.Observer` instances.

Multi-tenant: one service hosts every model in its
:class:`~repro.serving.registry.ModelRegistry`; a request's
:class:`~repro.serving.api.ModelRef` picks the model, one coalesced batch
may span models (scored per snapshot group), and per-model traffic is
labeled in the metrics via ``on_model_request``.

Degradation rules (per request, never the whole batch):

- unknown POIs in ``recent`` are dropped (vocabulary ``encode_known``);
- a query with *no* known POI is answered by the model's popularity
  fallback prior (``served_by="popularity-prior"``) when the registry
  configured one, else fails as a 400;
- a request that misses its deadline fails as a 503 while its batch peers
  still get answers;
- when the bounded queue is full the request is *shed* —
  :class:`~repro.exceptions.OverloadedError`, HTTP 503 + ``Retry-After``
  — and counted under ``status="shed"``, never dropped silently.
"""

from __future__ import annotations

import concurrent.futures
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ConfigError, OverloadedError, ServingError
from repro.models.embeddings import top_k_indices
from repro.observability.observer import Observer
from repro.serving.api import (
    ModelRef,
    RecommendRequest,
    RecommendResponse,
    ServingConfig,
    validate_top_k,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import MetricsObserver
from repro.serving.registry import DEFAULT_MODEL, LoadedModel, ModelRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.hooks import Observability


class RecommendService:
    """Batched next-location recommendations over hot-reloadable models.

    Args:
        registry: the model registry (models may be loaded later; requests
            before the first load fail with a 503-mapped error).
        observers: serving observers; a :class:`MetricsObserver` is
            appended automatically when none is present so
            :meth:`metrics` always has data.
        mode: full-matrix scoring kernel for request traffic — ``"fast"``
            (float32, default) or ``"exact"`` (float64, bit-identical to
            the evaluator path). Models with an ANN index serve top-k
            through it regardless (``served_by="ann"``).
        max_batch / max_wait_seconds / timeout_seconds: micro-batcher
            coalescing and deadline knobs.
        top_k_limit: largest accepted ``top_k`` per request.
        observability: optional bundle; its registry backs the
            auto-created :class:`MetricsObserver` (one scrape covers every
            layer) and ``serving.request`` / ``serving.batch`` spans are
            recorded into its tracer.
        include_counts: opt in to per-POI recommendation counters in the
            metrics output. Derived from live traffic, NOT covered by the
            DP guarantee; off by default (see ``docs/serving.md``).
        max_queue: bound on queued requests; beyond it submissions are
            shed with :class:`OverloadedError` (``None`` = unbounded).
        default_model: registry name answering requests that name none.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        observers: Sequence[Observer] | None = None,
        mode: str = "fast",
        max_batch: int = 64,
        max_wait_seconds: float = 0.002,
        timeout_seconds: float = 2.0,
        top_k_limit: int = 100,
        observability: "Observability | None" = None,
        include_counts: bool = False,
        max_queue: int | None = None,
        default_model: str = DEFAULT_MODEL,
    ) -> None:
        if top_k_limit < 1:
            raise ConfigError(f"top_k_limit must be >= 1, got {top_k_limit}")
        self._registry = registry
        self._mode = mode
        self._top_k_limit = int(top_k_limit)
        self._default_model = str(default_model)
        self._observability = observability
        self._observers: list[Observer] = list(observers or [])
        metrics = [o for o in self._observers if isinstance(o, MetricsObserver)]
        if not metrics:
            shared = observability.metrics if observability is not None else None
            metrics = [
                MetricsObserver(registry=shared, include_counts=include_counts)
            ]
            self._observers.extend(metrics)
        self._metrics = metrics[0]
        self._batcher = MicroBatcher(
            self._score_batch,
            max_batch=max_batch,
            max_wait_seconds=max_wait_seconds,
            timeout_seconds=timeout_seconds,
            on_batch=self._notify_batch,
            max_queue=max_queue,
        )

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        exclude_input: bool = False,
        with_fallback: bool = True,
        mmap: bool = False,
        ann: bool = False,
        **kwargs,
    ) -> "RecommendService":
        """Build a registry, load ``path``, and wrap it in a service."""
        registry = ModelRegistry(
            path,
            exclude_input=exclude_input,
            with_fallback=with_fallback,
            mmap=mmap,
            ann=ann,
        )
        registry.load()
        return cls(registry, **kwargs)

    @classmethod
    def from_config(
        cls,
        config: ServingConfig,
        observers: Sequence[Observer] | None = None,
        observability: "Observability | None" = None,
    ) -> "RecommendService":
        """Build, load, and wire a multi-tenant service from one config.

        Every artifact in ``config.artifacts`` is registered under its
        name and loaded eagerly, so the service is ready the moment this
        returns.
        """
        registry = ModelRegistry(
            exclude_input=config.exclude_input,
            with_fallback=config.with_fallback,
            mmap=config.mmap,
            ann=config.ann,
            nprobe=config.nprobe,
            num_clusters=config.num_clusters,
        )
        for name, path in config.artifacts:
            registry.add_model(name, path)
        registry.load_all()
        return cls(
            registry,
            observers=observers,
            mode=config.mode,
            max_batch=config.max_batch,
            max_wait_seconds=config.max_wait_seconds,
            timeout_seconds=config.timeout_seconds,
            top_k_limit=config.top_k_limit,
            observability=observability,
            include_counts=config.include_counts,
            max_queue=config.max_queue,
            default_model=config.default_model,
        )

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def queue_depth(self) -> int:
        """Approximate number of queued-but-unscored requests."""
        return self._batcher.depth

    @property
    def default_model(self) -> str:
        return self._default_model

    # -- request path ----------------------------------------------------

    def recommend(
        self,
        recent: Sequence,
        top_k: int = 10,
        timeout: float | None = None,
        model: "ModelRef | str | None" = None,
    ) -> dict:
        """Answer one recommendation request (blocking, batched).

        Returns:
            the wire v1 response dict — ``recommendations``, ``model``,
            ``version``, ``served_by``, ``v``, plus the legacy
            ``model_version`` / ``fallback`` keys.

        Raises:
            ConfigError: malformed request (bad ``top_k``, non-sequence
                ``recent``, or an unanswerable empty query).
            OverloadedError: the bounded queue is full (load shed).
            ServingError: no model loaded, deadline missed, or service
                closed.
        """
        start = time.perf_counter()
        status = "error"
        fallback = False
        model_name: str | None = None
        try:
            request = self._admissible(self._validate(recent, top_k, model))
            model_name = request.model.name
            response = self._batcher.submit(request, timeout=timeout)
            status = "ok"
            fallback = response.fallback
            return response.as_dict()
        except OverloadedError:
            status = "shed"
            raise
        except ConfigError:
            status = "invalid"
            raise
        except ServingError as error:
            status = "timeout" if "timed out" in str(error) else "error"
            raise
        finally:
            self.record_request(
                status,
                time.perf_counter() - start,
                fallback=fallback,
                model=model_name,
            )

    def submit_future(
        self, request: RecommendRequest
    ) -> concurrent.futures.Future:
        """Enqueue one typed request without blocking (asyncio front end).

        The returned future resolves to a :class:`RecommendResponse` (or
        raises). The caller owns deadline enforcement AND accounting —
        it must report the terminal status via :meth:`record_request`.

        Raises:
            ConfigError: inadmissible request (caller should 400).
            OverloadedError: queue full (caller should 503 + Retry-After).
        """
        return self._batcher.submit_future(self._admissible(request))

    def _admissible(self, request: RecommendRequest) -> RecommendRequest:
        """Re-check request bounds and pin the default model name."""
        validate_top_k(request.top_k, self._top_k_limit)
        if request.model.name == DEFAULT_MODEL and request.model.version is None:
            if self._default_model != DEFAULT_MODEL:
                return RecommendRequest(
                    recent=request.recent,
                    top_k=request.top_k,
                    model=ModelRef(self._default_model),
                    v=request.v,
                )
        return request

    def _validate(self, recent, top_k, model) -> RecommendRequest:
        if isinstance(recent, (str, bytes)) or not isinstance(
            recent, (list, tuple)
        ):
            raise ConfigError(
                f"recent must be a list of locations, got {type(recent).__name__}"
            )
        # Strict: bools and non-integral types are rejected with a typed
        # ConfigError (int() coercion used to accept top_k=True as 1).
        top_k = validate_top_k(top_k, self._top_k_limit)
        return RecommendRequest(
            recent=tuple(recent), top_k=top_k, model=ModelRef.parse(model)
        )

    # -- batch scoring -----------------------------------------------------

    def _score_batch(self, requests: Sequence[RecommendRequest]) -> list:
        """Batch handler: one scoring pass per distinct model snapshot.

        A coalesced batch may address several models; requests are grouped
        by resolved snapshot and each group is scored in one vectorized
        pass. Returns one result (or per-request exception) per item.
        """
        results: list = [None] * len(requests)
        groups: dict[int, tuple[LoadedModel, list[int]]] = {}
        for index, request in enumerate(requests):
            try:
                snapshot = self._registry.current(request.model)
            except ServingError as error:
                results[index] = error
                continue
            key = id(snapshot)
            if key not in groups:
                groups[key] = (snapshot, [])
            groups[key][1].append(index)
        for snapshot, indices in groups.values():
            self._score_group(snapshot, requests, indices, results)
        return results

    def _score_group(
        self,
        snapshot: LoadedModel,
        requests: Sequence[RecommendRequest],
        indices: list[int],
        results: list,
    ) -> None:
        recommender = snapshot.recommender
        encoded: list[tuple[int, RecommendRequest, np.ndarray]] = []
        for index in indices:
            request = requests[index]
            try:
                tokens = recommender.encode_query(list(request.recent))
            except ConfigError as error:
                results[index] = error
                continue
            if tokens.size == 0 and recommender.fallback_scores is None:
                results[index] = ConfigError(
                    "no location in the query is known to the model and the "
                    "model has no fallback prior"
                )
                continue
            encoded.append((index, request, tokens))
        if not encoded:
            return
        if snapshot.ann_index is not None:
            self._score_group_ann(snapshot, encoded, results)
        else:
            self._score_group_full(snapshot, encoded, results)

    def _finish_item(
        self,
        results: list,
        index: int,
        snapshot: LoadedModel,
        pairs: list,
        served_by: str,
    ) -> None:
        results[index] = RecommendResponse(
            recommendations=tuple(
                (location, float(score)) for location, score in pairs
            ),
            model=snapshot.name,
            version=snapshot.version,
            served_by=served_by,
        )
        if pairs and self._metrics.include_counts:
            self._metrics.record_recommended_poi(pairs[0][0])

    def _score_group_full(
        self,
        snapshot: LoadedModel,
        encoded: list,
        results: list,
    ) -> None:
        """Exact/fast full-matrix scoring for one snapshot group."""
        recommender = snapshot.recommender
        max_k = max(request.top_k for _, request, _ in encoded)
        batched = recommender.recommend_batch(
            [list(request.recent) for _, request, _ in encoded],
            top_k=max_k,
            mode=self._mode,
        )
        for (index, request, tokens), row in zip(encoded, batched):
            served_by = "popularity-prior" if tokens.size == 0 else "exact"
            self._finish_item(
                results, index, snapshot, row[: request.top_k], served_by
            )

    def _score_group_ann(
        self,
        snapshot: LoadedModel,
        encoded: list,
        results: list,
    ) -> None:
        """Sublinear clustered top-k for one snapshot group.

        Empty queries still go to the popularity prior; non-empty queries
        build their mean-embedding profile and search the snapshot's
        :class:`~repro.serving.ann.ClusteredIndex`. With ``exclude_input``
        enabled, enough extra candidates are fetched to drop the query's
        own locations and still fill ``top_k``.
        """
        recommender = snapshot.recommender
        index_obj = snapshot.ann_index
        matrix32 = recommender.embeddings.matrix32
        decode = (
            recommender._decode_table() if recommender.vocabulary is not None
            else None
        )
        live: list[tuple[int, RecommendRequest, np.ndarray]] = []
        for index, request, tokens in encoded:
            if tokens.size == 0:
                scores = recommender.fallback_scores
                top = top_k_indices(scores, request.top_k)
                pairs = [
                    (
                        decode[t] if decode is not None else int(t),
                        float(scores[t]),
                    )
                    for t in top
                ]
                self._finish_item(
                    results, index, snapshot, pairs, "popularity-prior"
                )
            else:
                live.append((index, request, tokens))
        if not live:
            return
        profiles = np.stack(
            [matrix32[tokens].mean(axis=0) for _, _, tokens in live]
        )
        extra = (
            max(tokens.size for _, _, tokens in live)
            if recommender.exclude_input
            else 0
        )
        need_k = max(request.top_k for _, request, _ in live) + extra
        candidate_tokens, candidate_scores = index_obj.search(
            profiles, top_k=need_k
        )
        for (index, request, tokens), row_tokens, row_scores in zip(
            live, candidate_tokens, candidate_scores
        ):
            if recommender.exclude_input:
                keep = ~np.isin(row_tokens, tokens)
                row_tokens = row_tokens[keep]
                row_scores = row_scores[keep]
            row_tokens = row_tokens[: request.top_k]
            row_scores = row_scores[: request.top_k]
            if decode is not None:
                locations = decode[row_tokens].tolist()
            else:
                locations = row_tokens.tolist()
            pairs = list(zip(locations, row_scores.tolist()))
            self._finish_item(results, index, snapshot, pairs, "ann")

    # -- operations ------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness/readiness payload for ``GET /healthz``."""
        models = {
            name: snapshot
            for name, snapshot in self._registry.models().items()
            if snapshot is not None
        }
        if not models:
            return {"status": "unloaded"}
        primary = models.get(self._default_model) or next(iter(models.values()))
        return {
            "status": "ok",
            "model_version": primary.version,
            "source": primary.source,
            "num_locations": primary.recommender.num_locations,
            "privacy": primary.privacy,
            "models": {
                name: {
                    "version": snapshot.version,
                    "source": snapshot.source,
                    "num_locations": snapshot.recommender.num_locations,
                    "served_by": (
                        "ann" if snapshot.ann_index is not None else "exact"
                    ),
                }
                for name, snapshot in models.items()
            },
        }

    def metrics(self) -> dict:
        """Legacy JSON aggregate counters (``GET /metrics?format=json``)."""
        return self._metrics.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the backing registry."""
        return self._metrics.render_prometheus()

    def metrics_jsonl(self) -> str:
        """JSONL export of the backing registry (one object per sample)."""
        return self._metrics.registry.to_jsonl()

    def reload(self, model: str | None = None) -> dict:
        """Hot-reload one named model's artifact; the old snapshot keeps
        serving on failure. Returns the health payload of the resulting
        state. ``model=None`` reloads the default model."""
        name = model or self._default_model
        source = ""
        try:
            snapshot = self._registry.reload(name)
        except Exception:
            version = 0
            try:
                version = self._registry.current(name).version
            except ServingError:
                pass
            self._notify_reload(version, False, source)
            raise
        self._notify_reload(snapshot.version, True, snapshot.source)
        return self.healthz()

    def close(self) -> None:
        """Stop the batcher worker; queued requests fail fast."""
        self._batcher.close()

    # -- observer fan-out ------------------------------------------------

    def record_request(
        self,
        status: str,
        latency_seconds: float,
        fallback: bool = False,
        model: str | None = None,
    ) -> None:
        """Account one finished request (front ends call this directly
        for futures they resolved themselves — every request, including
        shed and timed-out ones, lands here exactly once)."""
        if self._observability is not None:
            self._observability.record_span(
                "serving.request",
                latency_seconds,
                status=status,
                fallback=fallback,
            )
        for observer in self._observers:
            observer.on_request(status, latency_seconds, fallback=fallback)
            observer.on_model_request(model or self._default_model, status)

    def _notify_batch(self, batch_size: int, latency: float) -> None:
        if self._observability is not None:
            self._observability.record_span(
                "serving.batch", latency, batch_size=batch_size
            )
        for observer in self._observers:
            observer.on_batch(batch_size, latency)

    def _notify_reload(self, version: int, ok: bool, source: str) -> None:
        for observer in self._observers:
            observer.on_reload(version, ok, source)
