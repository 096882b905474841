"""Declared sources, sinks, sanitizers, and class catalogs of dpflow.

Everything name-based in the whole-program rules is declared here, in one
reviewable place (``docs/static-analysis.md`` renders these tables and the
"declaring a new sink" recipe):

- **Sources** (DPL006) — call names whose *return value* is sensitive
  per-user check-in data: ``CheckinStore.history`` and friends, raw
  dataset loads, bulk accessors.
- **Sinks** (DPL006) — call names whose arguments leave the process:
  model serialization, HTTP payload writes, metric label values, JSONL
  observers, artifact metadata, log strings.
- **Sanitizers** (DPL006) — calls that clear taint: the engine's noise
  application and explicit DP mechanisms. The ``include_counts`` opt-in
  guard (checked structurally, like DPL004) also clears a sink site.
- **Declassifiers** (DPL006) — reviewed aggregate surfaces (corpus
  statistics, evaluation metrics, budget queries) whose results the paper
  itself reports; taint does not propagate *through* them. Without this
  list every ``print(result.summary())`` downstream of a dataset would
  flag, drowning the real findings.
- **Shared-state classes** (DPL007) — classes reachable from threads or
  process-pool callbacks whose ``self`` mutations must be lock-protected
  or carry documented single-writer ownership.
- **Fork-unsafe tokens** (DPL008) — identifier names that must never be
  captured into a ``PairSourceSpec`` or a worker submission: locks, mmap
  handles, open files, live RNG objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutils import ModuleContext, call_name


@dataclass(frozen=True)
class SourceSpec:
    """One sensitive-data source: a call name whose result is tainted."""

    name: str
    description: str
    method_only: bool = False  # True: only ``obj.name(...)`` spellings


@dataclass(frozen=True)
class SinkSpec:
    """One export sink: a call whose arguments leave the process.

    Attributes:
        name: terminal call name (``a.b.name(...)`` or ``name(...)``).
        description: what export surface this is.
        module_scope: logical-path fragments the sink is recognized in
            (empty = everywhere). Generic names like ``dumps`` are scoped
            to export modules so a config round-trip does not count.
        kwargs_only: check only keyword-argument values (metric label
            values; the positional amount of ``counter.inc`` is a number).
    """

    name: str
    description: str
    module_scope: tuple[str, ...] = ()
    kwargs_only: bool = False

    def applies_to(self, logical_path: str) -> bool:
        if not self.module_scope:
            return True
        return any(fragment in logical_path for fragment in self.module_scope)


SOURCES: tuple[SourceSpec, ...] = (
    SourceSpec(
        "history",
        "per-user check-in history (CheckinStore.history / dataset.history)",
        method_only=True,
    ),
    SourceSpec(
        "history_arrays",
        "per-user check-in rows (ShardedCheckinStore.history_arrays)",
        method_only=True,
    ),
    SourceSpec(
        "iter_arrays",
        "flat check-in blocks of a whole corpus (CheckinStore.iter_arrays)",
        method_only=True,
    ),
    SourceSpec("load_checkins_csv", "raw check-in CSV load"),
    SourceSpec("load_foursquare_checkins", "raw Foursquare dataset load"),
    SourceSpec(
        "all_checkins", "bulk raw check-in materialization", method_only=True
    ),
    SourceSpec(
        "user_sequences",
        "per-user raw location sequences",
        method_only=True,
    ),
    SourceSpec(
        "to_dataset",
        "whole-corpus materialization of a CheckinStore",
        method_only=True,
    ),
)

_EXPORT_MODULES = (
    "repro/serving/",
    "repro/models/serialization",
    "repro/observability/",
    "repro/core/engine/observers",
    "repro/reporting",
)

SINKS: tuple[SinkSpec, ...] = (
    SinkSpec("save_deployable_model", "deployable model artifact"),
    SinkSpec("save_training_checkpoint", "training checkpoint artifact"),
    SinkSpec("save_checkins_csv", "check-in CSV export"),
    SinkSpec("_send_json", "HTTP response payload"),
    SinkSpec("_send_text", "HTTP response payload"),
    SinkSpec("set_info", "metric info-label values", kwargs_only=True),
    SinkSpec("inc", "metric label values", kwargs_only=True),
    SinkSpec("set", "metric label values", kwargs_only=True),
    SinkSpec("observe", "metric label values", kwargs_only=True),
    SinkSpec("dumps", "serialized JSON export", module_scope=_EXPORT_MODULES),
    SinkSpec("dump", "serialized JSON export", module_scope=_EXPORT_MODULES),
    SinkSpec("_emit", "JSONL observer record", module_scope=_EXPORT_MODULES),
    SinkSpec("write_text", "file export", module_scope=_EXPORT_MODULES),
    SinkSpec("print", "log string"),
    SinkSpec("debug", "log string"),
    SinkSpec("info", "log string"),
    SinkSpec("warning", "log string"),
    SinkSpec("error", "log string"),
    SinkSpec("critical", "log string"),
    SinkSpec("exception", "log string"),
    SinkSpec("warn", "log string"),
)

#: Calls that clear taint: applying calibrated noise IS the privacy
#: mechanism — data that passed through one of these is no longer raw.
SANITIZERS: frozenset[str] = frozenset(
    {
        "add_noise",
        "apply_noise",
        "gaussian_mechanism",
        "planar_laplace_noise",
        "perturb",
        "privatize",
    }
)

#: The opt-in flag gating raw-count export (shared with DPL004): a sink
#: under ``if <...>.include_counts:`` is explicitly opted in.
OPT_IN_GUARD = "include_counts"

#: Reviewed aggregate surfaces taint does not propagate through: corpus
#: statistics the paper tables report, evaluation metrics (HR@k over the
#: holdout), privacy-budget queries, and rendered telemetry snapshots.
#: ``fit`` / ``embeddings`` are the DP-mechanism boundary itself — the
#: trained model and its history are the mechanism's output, and anything
#: derived from them is post-processing the guarantee already covers.
#: Matching applies to calls *and* attribute access (``corpus.num_users``).
#: Adding a name here is a review decision — see docs/static-analysis.md.
DECLASSIFIERS: frozenset[str] = frozenset(
    {
        "fit",
        "embeddings",
        "stats",
        "describe",
        "as_dict",
        "summary",
        "evaluate",
        "evaluate_embeddings",
        "healthz",
        "metrics",
        "metrics_jsonl",
        "snapshot",
        "render_prometheus",
        "to_jsonl",
        "cumulative_budget_spent",
        "preview_budget_spent",
        "num_users",
        "num_checkins",
        "num_locations",
        "pair_count",
    }
)

#: DPL007: classes whose instances are reachable from handler threads or
#: process-pool callbacks. Mutations of ``self`` state in these classes
#: must hold a lock or carry documented single-writer ownership
#: ("single-writer" in the class/method docstring; "lock held" marks
#: helpers that run under a caller's lock). Classes that *own* a lock
#: (``self._lock = threading.Lock()`` or a lock passed into ``__init__``)
#: are checked for lock discipline automatically, catalogued or not.
SHARED_STATE_CLASSES: frozenset[str] = frozenset(
    {
        "MetricsRegistry",
        "ModelRegistry",
        "PrivacyLedger",
        "MicroBatcher",
        "SerialExecutor",
        "ShardedExecutor",
        "WorkerPool",
        "StepPipeline",
        "ShardedCheckinStore",
        "StorePairSource",
    }
)

#: Ownership markers DPL007 honors in docstrings (lower-cased match).
OWNERSHIP_MARKERS: tuple[str, ...] = ("single-writer", "lock held")

#: Mutating method names on ``self`` attributes that DPL007 flags.
#: Queue/event/pool methods that are internally synchronized are absent
#: on purpose (``put``, ``get``, ``submit``, ``shutdown``, ...).
MUTATOR_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "track_budget",
        "reset",
    }
)

#: DPL008: identifier tokens (leading underscores stripped, lower-cased)
#: that must not appear in values captured into a spec or a worker
#: submission. ``seed`` / ``SeedSequence`` are explicitly fine — shipping
#: pre-derived seed material is the whole point of the executor design.
FORK_UNSAFE_TOKENS: frozenset[str] = frozenset(
    {
        "lock",
        "rlock",
        "semaphore",
        "condition",
        "mmap",
        "fileobj",
        "fh",
        "file",
        "handle",
        "sock",
        "socket",
        "thread",
        "rng",
        "generator",
        "open_shards",
    }
)

#: Suffixes flagged on full identifier names (``shard_rng``, ``log_file``).
FORK_UNSAFE_SUFFIXES: tuple[str, ...] = (
    "_lock",
    "_rng",
    "_mmap",
    "_file",
    "_handle",
    "_pool",
)


@dataclass(frozen=True)
class Catalog:
    """The bundle of declarations one dpflow analysis run uses.

    Rules take a catalog instance (defaulting to the module-level
    declarations) so tests can narrow or extend it without monkeypatching.
    """

    sources: tuple[SourceSpec, ...] = SOURCES
    sinks: tuple[SinkSpec, ...] = SINKS
    sanitizers: frozenset[str] = SANITIZERS
    declassifiers: frozenset[str] = DECLASSIFIERS
    opt_in_guard: str = OPT_IN_GUARD
    shared_state_classes: frozenset[str] = SHARED_STATE_CLASSES
    ownership_markers: tuple[str, ...] = OWNERSHIP_MARKERS
    mutator_methods: frozenset[str] = MUTATOR_METHODS
    fork_unsafe_tokens: frozenset[str] = FORK_UNSAFE_TOKENS
    fork_unsafe_suffixes: tuple[str, ...] = FORK_UNSAFE_SUFFIXES
    _source_names: dict[str, SourceSpec] = field(init=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_source_names", {spec.name: spec for spec in self.sources}
        )

    def match_source(self, call: ast.Call) -> SourceSpec | None:
        """The source spec a call matches, if any."""
        name = call_name(call)
        if name is None:
            return None
        spec = self._source_names.get(name)
        if spec is None:
            return None
        if spec.method_only and not isinstance(call.func, ast.Attribute):
            return None
        return spec

    def match_sinks(
        self, call: ast.Call, module: ModuleContext
    ) -> list[SinkSpec]:
        """Every sink spec a call matches in its module."""
        name = call_name(call)
        if name is None:
            return []
        return [
            spec
            for spec in self.sinks
            if spec.name == name and spec.applies_to(module.logical)
        ]

    def is_sanitizer(self, call: ast.Call) -> bool:
        name = call_name(call)
        return name is not None and name.lower() in self.sanitizers

    def is_declassifier(self, call: ast.Call) -> bool:
        name = call_name(call)
        return name is not None and name in self.declassifiers


DEFAULT_CATALOG = Catalog()
