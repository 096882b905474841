"""Observer/callback layer of the serving stack, backed by the registry.

The serving stack reports through the same
:class:`~repro.observability.MetricsRegistry` as the training engine and
the evaluator: :class:`MetricsObserver` registers the ``repro_serving_*``
instrument families and feeds them from the unified
:class:`~repro.observability.Observer` hooks (``on_request`` /
``on_batch`` / ``on_reload``). ``GET /metrics`` renders the registry's
Prometheus text (with full label escaping — POI ids and artifact paths may
contain quotes or newlines); the pre-registry JSON shape survives as
:meth:`MetricsObserver.snapshot` for the ``?format=json`` escape hatch.

``ServingObserver`` — the stack's historical base class — remains
importable here as a thin deprecated alias of the unified
:class:`repro.observability.Observer`; subclassing or instantiating it
emits a :class:`DeprecationWarning`.

Privacy note: per-POI recommendation counts are computed from live query
traffic and are NOT covered by the model's DP guarantee. They are only
recorded when the operator passes the explicit ``include_counts`` opt-in
(enforced by dplint DPL004), and never by default.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro._compat import deprecated_class_alias
from repro.observability.metrics import MetricsRegistry
from repro.observability.observer import Observer

#: The serving stack's historical observer base class; subclassing or
#: instantiating it warns (see :mod:`repro._compat` for the policy).
ServingObserver = deprecated_class_alias(
    "ServingObserver", __name__, Observer, "repro.observability.Observer"
)


class MetricsObserver(Observer):
    """Feeds the ``repro_serving_*`` metric families of a shared registry.

    Args:
        registry: the :class:`MetricsRegistry` to register into; a private
            one is created when omitted. Pass the bundle's registry to get
            training, serving, and evaluation metrics in one scrape.
        include_counts: opt in to per-POI recommendation counters
            (``repro_serving_poi_recommended_total{poi=...}``). These are
            derived from live query traffic, not from the DP model — they
            carry **no privacy guarantee** and are off by default.

    Instrument families: ``requests_total{status}``,
    ``fallback_answers_total``, ``request_seconds`` (histogram),
    ``batch_seconds`` (histogram), ``queries_scored_total``,
    ``max_batch_size`` (gauge), ``reloads_total{result}``,
    ``model_version`` (gauge).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        include_counts: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.include_counts = bool(include_counts)
        self._lock = threading.Lock()
        self._max_batch_size = 0
        self._requests = self.registry.counter(
            "repro_serving_requests_total",
            "Serving requests by terminal status (label: status)",
        )
        self._fallbacks = self.registry.counter(
            "repro_serving_fallback_answers_total",
            "Requests answered by the popularity fallback prior",
        )
        self._request_seconds = self.registry.histogram(
            "repro_serving_request_seconds",
            "Per-request latency, submission to response",
        )
        self._batch_seconds = self.registry.histogram(
            "repro_serving_batch_seconds",
            "Per-micro-batch scoring latency",
        )
        self._queries_scored = self.registry.counter(
            "repro_serving_queries_scored_total",
            "Queries scored across all micro-batches",
        )
        self._max_batch = self.registry.gauge(
            "repro_serving_max_batch_size",
            "Largest micro-batch coalesced so far",
        )
        self._model_requests = self.registry.counter(
            "repro_serving_model_requests_total",
            "Serving requests by model name and terminal status "
            "(labels: model, status)",
        )
        self._shed = self.registry.counter(
            "repro_serving_shed_total",
            "Requests refused with 503 + Retry-After because the bounded "
            "queue was full (every shed request is counted here — "
            "overload is never silent)",
        )
        self._reloads = self.registry.counter(
            "repro_serving_reloads_total",
            "Model (re)load attempts by outcome (label: result)",
        )
        self._model_version = self.registry.gauge(
            "repro_serving_model_version",
            "Version of the currently served model artifact",
        )
        if include_counts:
            # Unprotected live-traffic telemetry; see the module's privacy
            # note. The include_counts gate is what DPL004 checks for.
            self._poi_recommended = self.registry.counter(
                "repro_serving_poi_recommended_total",
                "Top-1 recommendations by POI id (include_counts opt-in; "
                "NOT covered by the DP guarantee)",
            )
        else:
            self._poi_recommended = None

    # -- observer hooks ---------------------------------------------------

    def on_request(
        self, status: str, latency_seconds: float, fallback: bool = False
    ) -> None:
        self._requests.inc(status=status)
        if status == "shed":
            self._shed.inc()
        if fallback:
            self._fallbacks.inc()
        self._request_seconds.observe(latency_seconds)

    def on_model_request(self, model: str, status: str) -> None:
        self._model_requests.inc(model=model, status=status)

    def on_batch(self, batch_size: int, latency_seconds: float) -> None:
        self._batch_seconds.observe(latency_seconds)
        self._queries_scored.inc(batch_size)
        with self._lock:
            if batch_size > self._max_batch_size:
                self._max_batch_size = batch_size
                self._max_batch.set(batch_size)

    def on_reload(self, version: int, ok: bool, source: str) -> None:
        self._reloads.inc(result="ok" if ok else "failed")
        if ok:
            self._model_version.set(version)

    def record_recommended_poi(self, poi: object) -> None:
        """Count one top-1 recommendation — only under the opt-in gate."""
        if self.include_counts and self._poi_recommended is not None:
            self._poi_recommended.inc(poi=str(poi))

    # -- export -----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The backing registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()

    def snapshot(self) -> dict:
        """The pre-registry JSON shape (``GET /metrics?format=json``)."""
        requests = {
            dict(key).get("status", ""): int(value)
            for key, value in self._requests.items().items()
        }
        request_stats = self._request_seconds.stats()
        batch_stats = self._batch_seconds.stats()
        reloads = {
            dict(key).get("result", ""): int(value)
            for key, value in self._reloads.items().items()
        }
        model_requests: dict[str, dict[str, int]] = {}
        for key, value in self._model_requests.items().items():
            labels = dict(key)
            by_status = model_requests.setdefault(labels.get("model", ""), {})
            by_status[labels.get("status", "")] = int(value)
        return {
            "requests": requests,
            "requests_total": sum(requests.values()),
            "shed": int(self._shed.total()),
            "model_requests": model_requests,
            "fallback_answers": int(self._fallbacks.total()),
            "request_latency": _latency_dict(request_stats),
            "batches": {
                **_latency_dict(batch_stats),
                "queries_scored": int(self._queries_scored.total()),
                "max_batch_size": self._max_batch_size,
            },
            "reloads": {
                "ok": reloads.get("ok", 0),
                "failed": reloads.get("failed", 0),
            },
            "model_version": int(self._model_version.value()),
        }


def _latency_dict(stats: dict[str, float]) -> dict:
    """Histogram stats in the legacy snapshot's latency-aggregate shape."""
    return {
        "count": int(stats["count"]),
        "mean_seconds": stats["mean"],
        "min_seconds": stats["min"],
        "max_seconds": stats["max"],
    }


class JsonlServingObserver(Observer):
    """Streams one JSON object per serving event to a JSON-lines file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None

    def _emit(self, payload: dict) -> None:
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("w", encoding="utf-8")
            self._file.write(json.dumps(payload) + "\n")
            self._file.flush()

    def on_request(
        self, status: str, latency_seconds: float, fallback: bool = False
    ) -> None:
        self._emit(
            {
                "event": "request",
                "status": status,
                "latency_seconds": latency_seconds,
                "fallback": fallback,
            }
        )

    def on_batch(self, batch_size: int, latency_seconds: float) -> None:
        self._emit(
            {
                "event": "batch",
                "batch_size": batch_size,
                "latency_seconds": latency_seconds,
            }
        )

    def on_reload(self, version: int, ok: bool, source: str) -> None:
        self._emit({"event": "reload", "version": version, "ok": ok, "source": source})

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
