"""The versioned serving wire API: typed request/response/config objects.

Every payload that crosses the serving boundary — an HTTP body, a
micro-batcher work item, a facade call — is one of the frozen dataclasses
in this module. Each wire type carries an explicit ``"v"`` schema-version
field; the current schema is :data:`WIRE_VERSION` (1). Bodies *without* a
``"v"`` key are accepted as v1 (the pre-redesign ad-hoc JSON was exactly
the v1 shape minus the version marker), and bodies with an unknown
version are rejected with a :class:`~repro.exceptions.ConfigError` so a
client and server can never silently disagree about field semantics.

The types:

- :class:`ModelRef` — ``name`` or ``name@version``: which registry model
  a request wants (multi-tenant serving hosts many named models).
- :class:`RecommendRequest` — the ``POST /recommend`` body.
- :class:`RecommendResponse` — its answer, carrying ``model``,
  ``version``, and ``served_by`` (``"exact"`` | ``"ann"`` |
  ``"popularity-prior"``) so consumers can audit which model and which
  scoring path produced a ranking.
- :class:`ServingConfig` — the whole serving deployment as one value:
  artifacts to host, default model, kernel/ANN knobs, batching, queue
  bound, and transport settings.

Versioning & deprecation policy (see ``docs/serving.md``): additive
fields may appear within a wire version; renaming or re-typing a field
bumps :data:`WIRE_VERSION`, and the previous version stays decodable for
at least two release cycles, the removal policy every deprecated name
follows (``docs/architecture.md``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

from repro.exceptions import ConfigError

#: Current wire schema version. Bodies without a ``"v"`` key decode as v1.
WIRE_VERSION = 1

#: The scoring paths a response can be served by.
SERVED_BY = ("exact", "ann", "popularity-prior")

#: Accepted scoring kernels (shared with the recommender).
SCORING_MODES = ("exact", "fast")

_METRICS_FORMATS = ("prometheus", "json", "jsonl")


def _check_version(payload: Mapping, kind: str) -> int:
    """Validate the ``"v"`` field of a wire payload (absent = v1)."""
    version = payload.get("v", WIRE_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ConfigError(f'{kind}: "v" must be an integer, got {version!r}')
    if version != WIRE_VERSION:
        raise ConfigError(
            f"{kind}: unsupported wire version {version} "
            f"(this server speaks v{WIRE_VERSION})"
        )
    return version


def validate_top_k(top_k: object, limit: int | None = None) -> int:
    """Strictly validate a ``top_k`` value; returns it as a plain ``int``.

    Accepts genuine integers only (``operator.index``: ``int``, NumPy
    integers, ...). ``bool`` is rejected explicitly — ``top_k=True`` used
    to slip through ``int()`` coercion and silently mean 1 — as are floats
    and numeric strings, with a message naming the offending type rather
    than a confusing ``ValueError`` echo.

    Raises:
        ConfigError: non-integral type, or out of ``[1, limit]``.
    """
    if isinstance(top_k, bool):
        raise ConfigError(
            f"top_k must be an integer, got bool {top_k!r} "
            "(booleans are not accepted as counts)"
        )
    try:
        value = operator.index(top_k)  # type: ignore[arg-type]
    except TypeError:
        raise ConfigError(
            f"top_k must be an integer, got {type(top_k).__name__} {top_k!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"top_k must be >= 1, got {value}")
    if limit is not None and value > limit:
        raise ConfigError(f"top_k must be in [1, {limit}], got {value}")
    return int(value)


@dataclass(frozen=True, slots=True)
class ModelRef:
    """A reference to one hosted model: ``name`` or ``name@version``.

    ``version=None`` means "whatever is currently published under
    ``name``"; a pinned version is satisfied only by exactly that load,
    which lets a client detect (and refuse to act on) a hot-swap.
    """

    name: str = "default"
    version: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"model name must be a non-empty string, got {self.name!r}")
        if "@" in self.name:
            raise ConfigError(
                f"model name {self.name!r} must not contain '@'; "
                "use ModelRef.parse() for name@version specs"
            )
        if self.version is not None:
            if isinstance(self.version, bool) or not isinstance(self.version, int):
                raise ConfigError(
                    f"model version must be an integer, got {self.version!r}"
                )
            if self.version < 1:
                raise ConfigError(f"model version must be >= 1, got {self.version}")

    @classmethod
    def parse(cls, spec: "str | ModelRef | None") -> "ModelRef":
        """Parse ``"name"`` / ``"name@3"`` (``None`` -> the default model)."""
        if spec is None:
            return cls()
        if isinstance(spec, ModelRef):
            return spec
        if not isinstance(spec, str):
            raise ConfigError(
                f"model must be a 'name' or 'name@version' string, got {spec!r}"
            )
        name, sep, version = spec.partition("@")
        if not sep:
            return cls(name=name)
        if not version.isdigit():
            raise ConfigError(
                f"model version in {spec!r} must be a positive integer"
            )
        return cls(name=name, version=int(version))

    def __str__(self) -> str:
        if self.version is None:
            return self.name
        return f"{self.name}@{self.version}"


@dataclass(frozen=True, slots=True)
class RecommendRequest:
    """The ``POST /recommend`` body (wire v1).

    Attributes:
        recent: the user's recent check-in locations, most context first.
        top_k: how many candidates to return.
        model: which hosted model should answer (default model when
            omitted on the wire).
        v: wire schema version (always :data:`WIRE_VERSION` once decoded).
    """

    recent: tuple = ()
    top_k: int = 10
    model: ModelRef = field(default_factory=ModelRef)
    v: int = WIRE_VERSION

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RecommendRequest":
        """Decode a JSON body; a body without ``"v"`` is accepted as v1.

        Raises:
            ConfigError: missing/malformed ``recent``, non-integral
                ``top_k``, bad ``model`` spec, unknown wire version, or
                unknown fields (strict by design: a typo'd field name must
                not silently change behavior).
        """
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        version = _check_version(payload, "RecommendRequest")
        unknown = set(payload) - {"recent", "top_k", "model", "v"}
        if unknown:
            raise ConfigError(
                f"unknown request field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        if "recent" not in payload:
            raise ConfigError('request must carry a "recent" list')
        recent = payload["recent"]
        if isinstance(recent, (str, bytes)) or not isinstance(recent, Sequence):
            raise ConfigError(
                f"recent must be a list of locations, got {type(recent).__name__}"
            )
        top_k = validate_top_k(payload.get("top_k", 10))
        return cls(
            recent=tuple(recent),
            top_k=top_k,
            model=ModelRef.parse(payload.get("model")),
            v=version,
        )

    def as_dict(self) -> dict:
        """The JSON wire shape (always carries the explicit ``"v"``)."""
        return {
            "v": self.v,
            "recent": list(self.recent),
            "top_k": self.top_k,
            "model": str(self.model),
        }


@dataclass(frozen=True, slots=True)
class RecommendResponse:
    """The answer to one :class:`RecommendRequest` (wire v1).

    Attributes:
        recommendations: ``(location, score)`` pairs, best first.
        model: name of the registry model that answered.
        version: that model's published version at scoring time.
        served_by: the scoring path — ``"exact"`` (full-matrix kernel),
            ``"ann"`` (clustered sublinear top-k), or
            ``"popularity-prior"`` (fallback: no query location known).
        fallback: legacy alias of ``served_by == "popularity-prior"``.
        v: wire schema version.
    """

    recommendations: tuple = ()
    model: str = "default"
    version: int = 0
    served_by: str = "exact"
    v: int = WIRE_VERSION

    def __post_init__(self) -> None:
        if self.served_by not in SERVED_BY:
            raise ConfigError(
                f"served_by must be one of {SERVED_BY}, got {self.served_by!r}"
            )

    @property
    def fallback(self) -> bool:
        """Whether the popularity prior answered (no known location)."""
        return self.served_by == "popularity-prior"

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RecommendResponse":
        """Decode a response body; v-less bodies decode as v1.

        Pre-redesign bodies carried only ``recommendations`` /
        ``model_version`` / ``fallback``; those decode with the default
        model name and a ``served_by`` inferred from ``fallback``.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"response body must be a JSON object, got {type(payload).__name__}"
            )
        version = _check_version(payload, "RecommendResponse")
        served_by = payload.get("served_by")
        if served_by is None:
            served_by = (
                "popularity-prior" if payload.get("fallback") else "exact"
            )
        model_version = payload.get("version", payload.get("model_version", 0))
        if isinstance(model_version, bool) or not isinstance(model_version, int):
            raise ConfigError(
                f"response model version must be an integer, got {model_version!r}"
            )
        raw = payload.get("recommendations", ())
        if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
            raise ConfigError(
                f"recommendations must be a list of [location, score] pairs, "
                f"got {type(raw).__name__}"
            )
        recommendations = []
        for entry in raw:
            if (
                isinstance(entry, (str, bytes))
                or not isinstance(entry, Sequence)
                or len(entry) != 2
            ):
                raise ConfigError(
                    f"each recommendation must be a [location, score] pair, "
                    f"got {entry!r}"
                )
            recommendations.append((entry[0], entry[1]))
        return cls(
            recommendations=tuple(recommendations),
            model=str(payload.get("model", "default")),
            version=model_version,
            served_by=str(served_by),
            v=version,
        )

    def as_dict(self) -> dict:
        """The JSON wire shape.

        Carries the v1 fields plus the legacy ``model_version`` and
        ``fallback`` keys, so pre-redesign clients keep decoding
        responses unchanged (additive evolution within wire v1).
        """
        return {
            "v": self.v,
            "recommendations": [
                [location, score] for location, score in self.recommendations
            ],
            "model": self.model,
            "version": self.version,
            "served_by": self.served_by,
            # Legacy v1 spellings, kept for pre-redesign consumers.
            "model_version": self.version,
            "fallback": self.fallback,
        }


@dataclass(frozen=True, slots=True)
class ServingConfig:
    """One serving deployment as a value (wire v1).

    Attributes:
        artifacts: ``(name, path)`` pairs of deployable ``.npz`` artifacts
            to host (``from_dict`` also accepts a ``{name: path}`` dict).
        default_model: which hosted model answers requests that name none.
        mode: scoring kernel for full-matrix scoring — ``"fast"``
            (float32) or ``"exact"`` (float64).
        ann: serve top-k through the clustered sublinear index
            (:mod:`repro.serving.ann`) instead of scoring every location.
        nprobe: clusters probed per ANN query (recall/latency knob).
        num_clusters: ANN partition count (``None`` = about ``sqrt(L)``).
        max_batch / max_wait_seconds / timeout_seconds: micro-batcher
            coalescing and deadline knobs.
        max_queue: bound on queued requests; beyond it the server sheds
            load with 503 + ``Retry-After`` instead of building unbounded
            latency.
        top_k_limit: largest accepted ``top_k`` per request.
        exclude_input: drop the query's own locations from rankings.
        with_fallback: answer all-unknown queries from the popularity
            prior instead of failing them.
        mmap: memory-map artifact embeddings so N serving workers share
            one read-only copy (see ``docs/serving.md``).
        host / port / metrics_format / quiet: transport settings.
        include_counts: opt in to per-POI recommendation counters —
            live-traffic telemetry, NOT covered by the DP guarantee.
        trace_jsonl: stream serving spans to this JSON-lines path.
        v: wire schema version.
    """

    artifacts: tuple[tuple[str, str], ...] = ()
    default_model: str = "default"
    mode: str = "fast"
    ann: bool = False
    nprobe: int = 8
    num_clusters: int | None = None
    max_batch: int = 64
    max_wait_seconds: float = 0.002
    timeout_seconds: float = 2.0
    max_queue: int = 1024
    top_k_limit: int = 100
    exclude_input: bool = False
    with_fallback: bool = True
    mmap: bool = False
    host: str = "127.0.0.1"
    port: int = 8000
    metrics_format: str = "prometheus"
    quiet: bool = False
    include_counts: bool = False
    trace_jsonl: str | None = None
    v: int = WIRE_VERSION

    def __post_init__(self) -> None:
        normalized = _normalize_artifacts(self.artifacts)
        object.__setattr__(self, "artifacts", normalized)
        if self.mode not in SCORING_MODES:
            raise ConfigError(
                f"mode must be one of {SCORING_MODES}, got {self.mode!r}"
            )
        if self.metrics_format not in _METRICS_FORMATS:
            raise ConfigError(
                f"metrics_format must be one of {list(_METRICS_FORMATS)}, "
                f"got {self.metrics_format!r}"
            )
        for name, value, low in (
            ("nprobe", self.nprobe, 1),
            ("max_batch", self.max_batch, 1),
            ("max_queue", self.max_queue, 1),
            ("top_k_limit", self.top_k_limit, 1),
        ):
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.num_clusters is not None and (
            isinstance(self.num_clusters, bool)
            or not isinstance(self.num_clusters, int)
            or self.num_clusters < 1
        ):
            raise ConfigError(
                f"num_clusters must be a positive integer or None, "
                f"got {self.num_clusters!r}"
            )
        for name, value in (
            ("max_wait_seconds", self.max_wait_seconds),
            ("timeout_seconds", self.timeout_seconds),
        ):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.max_wait_seconds < 0:
            raise ConfigError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        names = [name for name, _ in self.artifacts]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate artifact model names in {names}")
        if self.artifacts and self.default_model not in names:
            raise ConfigError(
                f"default_model {self.default_model!r} is not among the "
                f"configured artifacts {names}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServingConfig":
        """Decode a config mapping; a mapping without ``"v"`` is v1."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"serving config must be a mapping, got {type(payload).__name__}"
            )
        _check_version(payload, "ServingConfig")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown serving config field(s): "
                f"{', '.join(sorted(map(str, unknown)))}"
            )
        values = dict(payload)
        if "artifacts" in values:
            values["artifacts"] = _normalize_artifacts(values["artifacts"])
        try:
            return cls(**values)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed serving config: {exc}") from exc

    def as_dict(self) -> dict:
        """The JSON wire shape (artifacts as a ``{name: path}`` object)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["artifacts"] = {name: path for name, path in self.artifacts}
        return payload

    def with_artifact(self, name: str, path: str) -> "ServingConfig":
        """A copy of this config with one more hosted artifact."""
        return replace(self, artifacts=self.artifacts + ((name, str(path)),))


def _normalize_artifacts(artifacts: object) -> tuple[tuple[str, str], ...]:
    """Coerce ``{name: path}`` / ``[(name, path), ...]`` / ``[path, ...]``."""
    if isinstance(artifacts, Mapping):
        pairs = list(artifacts.items())
    elif isinstance(artifacts, Sequence) and not isinstance(artifacts, (str, bytes)):
        pairs = []
        for entry in artifacts:
            if isinstance(entry, (str, bytes)):
                raise ConfigError(
                    "artifacts entries must be (name, path) pairs or a "
                    f"{{name: path}} mapping, got bare path {entry!r}"
                )
            try:
                name, path = entry
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"artifacts entries must be (name, path) pairs, got {entry!r}"
                ) from exc
            pairs.append((name, path))
    else:
        raise ConfigError(
            f"artifacts must be a mapping or (name, path) pairs, got {artifacts!r}"
        )
    normalized = []
    for name, path in pairs:
        if not name or not isinstance(name, str) or "@" in name:
            raise ConfigError(
                f"artifact model name must be a non-empty string without '@', "
                f"got {name!r}"
            )
        normalized.append((name, str(path)))
    return tuple(normalized)
