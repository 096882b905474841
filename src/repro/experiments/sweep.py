"""Fleet-scale sweep orchestration on top of :class:`ExperimentRunner`.

A :class:`GridSpec` declares a full experiment grid — swept
:class:`~repro.experiments.runner.SweepSpec` axes (cartesian product),
base-config overrides, methods, a per-sweep seed root, a workload
(synthetic generator parameters or a corpus path), and optional named
subsets. :func:`expand_spec` turns it into a flat, deterministic run
list where every run carries a **content-addressed id** (a hash of the
workload + config + method + seed material, independent of its position
in the grid) and a draw-free trainer sub-stream derived via
:func:`repro.rng.derive`.

:func:`run_sweep` executes that list through a process-pool work queue
(reusing the conventions of :mod:`repro.core.engine.executors`: plain
picklable payloads, a persistent initializer, deterministic retry after
a worker death), writing one atomic outcome file per run under the
output directory. A ``sweep.json`` manifest plus those outcome files
make the sweep resumable: a killed sweep restarted with ``resume=True``
skips every completed run by id and produces a final aggregate
bit-identical to an uninterrupted one, because each run is a pure
function of its derived seed.

Aggregation merges the outcomes back into a
:class:`~repro.experiments.runner.ResultTable` and writes a
schema-validated ``aggregate.json`` (deliberately free of wall-clock
timings so it is byte-stable across executions) plus one CSV per swept
axis under ``figures/``. Progress is reported through the observability
registry as ``repro_sweep_*`` metrics and ``sweep``/``sweep.run`` spans.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import PLPConfig
from repro.core.engine.blas import available_cores, limit_blas_threads
from repro.data.checkins import CheckinDataset
from repro.data.preprocessing import paper_preprocessing
from repro.data.splitting import holdout_users_split
from repro.data.store import open_corpus
from repro.data.synthetic import SyntheticConfig, generate_checkins
from repro.exceptions import ConfigError, ExecutorError
from repro.experiments.runner import (
    ExperimentRunner,
    ResultTable,
    RunOutcome,
    SweepSpec,
)
from repro.observability.hooks import Observability
from repro.observability.metrics import MetricsRegistry
from repro.privacy.accountant.rdp import load_special_functions
from repro.rng import derive

#: Version of the ``sweep.json`` manifest layout.
MANIFEST_VERSION = 1

#: Version of the ``aggregate.json`` schema.
AGGREGATE_SCHEMA_VERSION = 1

# Namespacing word prepended to every sweep-derived RNG sub-stream so
# sweep trainer seeds can never collide with the engine's per-step
# derive() children of the same root seed. Fits in a uint32 (spawn-key
# words are 32-bit).
_SWEEP_KEY = 0x73776565  # "swee"

_METHODS = ("plp", "dpsgd")


def _canonical_json(payload: Any) -> str:
    """Key-sorted, separator-normalized JSON for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclass(frozen=True)
class WorkloadSpec:
    """Where a sweep's (train, holdout) evaluation pair comes from.

    Exactly one data source applies: ``data`` names an on-disk corpus
    (sharded store directory or check-in CSV, resolved through
    :func:`repro.data.store.open_corpus`), otherwise ``synthetic`` maps
    :class:`~repro.data.synthetic.SyntheticConfig` field overrides for
    the deterministic generator. Generation, preprocessing, and the
    holdout split are all seed-determined, so every worker process
    rebuilds an identical workload from this spec alone.

    Attributes:
        data: corpus path, or ``None`` to generate synthetically.
        synthetic: ``SyntheticConfig`` overrides for the generator.
        preprocess: run :func:`paper_preprocessing` over generated data.
        holdout_users: users held out for leave-one-out evaluation.
        data_seed: seed of the synthetic generator.
        split_seed: seed of the train/holdout user split.
        k_values: HR@k cutoffs recorded per run.
    """

    data: str | None = None
    synthetic: Mapping[str, Any] = field(default_factory=dict)
    preprocess: bool = True
    holdout_users: int = 15
    data_seed: int = 123
    split_seed: int = 5
    k_values: tuple[int, ...] = (5, 10, 20)

    def __post_init__(self) -> None:
        if self.data is not None and self.synthetic:
            raise ConfigError("workload takes either 'data' or 'synthetic', not both")
        if int(self.holdout_users) < 1:
            raise ConfigError(f"holdout_users must be >= 1, got {self.holdout_users}")
        object.__setattr__(self, "synthetic", dict(self.synthetic))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not self.k_values:
            raise ConfigError("k_values must be non-empty")
        unknown = set(self.synthetic) - set(SyntheticConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown SyntheticConfig fields: {sorted(unknown)}")

    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (canonical for hashing)."""
        return {
            "data": self.data,
            "synthetic": dict(self.synthetic),
            "preprocess": self.preprocess,
            "holdout_users": int(self.holdout_users),
            "data_seed": int(self.data_seed),
            "split_seed": int(self.split_seed),
            "k_values": list(self.k_values),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`as_dict`; rejects unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(f"workload must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - {
            "data", "synthetic", "preprocess", "holdout_users",
            "data_seed", "split_seed", "k_values",
        }
        if unknown:
            raise ConfigError(f"unknown workload keys: {sorted(unknown)}")
        return cls(**dict(payload))

    def build(self) -> tuple[CheckinDataset, CheckinDataset]:
        """Materialize the deterministic (train, holdout) pair."""
        if self.data is not None:
            dataset = open_corpus(self.data).to_dataset()
        else:
            config = SyntheticConfig(**dict(self.synthetic))
            checkins = generate_checkins(config, rng=int(self.data_seed))
            if self.preprocess:
                checkins = paper_preprocessing(checkins)
            dataset = CheckinDataset(checkins)
        return holdout_users_split(
            dataset, int(self.holdout_users), rng=int(self.split_seed)
        )


@dataclass(frozen=True)
class GridSpec:
    """A declarative sweep: axes x methods x seeds over one workload.

    Attributes:
        name: sweep identifier (used in reports and figure filenames).
        axes: swept :class:`SweepSpec` axes; the run grid is their
            cartesian product (first axis slowest-varying).
        base: :class:`PLPConfig` overrides every run starts from.
        methods: training methods to run per grid point.
        seeds: independent trainer seeds per (grid point, method).
        seed: root seed; per-run streams derive from it draw-free.
        workload: evaluation data specification.
        subsets: named restrictions (``{"axes": {field: [...]},
            "seeds": n, "methods": [...]}``) selectable at launch.
    """

    name: str
    axes: tuple[SweepSpec, ...]
    base: Mapping[str, Any] = field(default_factory=dict)
    methods: tuple[str, ...] = ("plp",)
    seeds: int = 1
    seed: int = 7
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    subsets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ConfigError("sweep name must be non-empty")
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ConfigError("a sweep needs at least one axis")
        seen_fields = set()
        for axis in self.axes:
            if axis.field in seen_fields:
                raise ConfigError(f"duplicate sweep axis {axis.field!r}")
            seen_fields.add(axis.field)
            if len(set(map(repr, axis.values))) != len(axis.values):
                raise ConfigError(f"axis {axis.field!r} has duplicate values")
        object.__setattr__(self, "base", dict(self.base))
        unknown = set(self.base) - set(PLPConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown PLPConfig base fields: {sorted(unknown)}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for method in self.methods:
            if method not in _METHODS:
                raise ConfigError(f"method must be one of {_METHODS}, got {method!r}")
        if int(self.seeds) < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "subsets", {
            str(subset_name): dict(subset)
            for subset_name, subset in dict(self.subsets).items()
        })

    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (canonical for hashing)."""
        return {
            "name": self.name,
            "axes": {axis.field: list(axis.values) for axis in self.axes},
            "base": dict(self.base),
            "methods": list(self.methods),
            "seeds": int(self.seeds),
            "seed": int(self.seed),
            "workload": self.workload.as_dict(),
            "subsets": {
                subset_name: dict(subset)
                for subset_name, subset in self.subsets.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridSpec":
        """Build a spec from a JSON-shaped mapping; rejects unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(f"sweep spec must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - {
            "name", "axes", "base", "methods", "seeds", "seed", "workload", "subsets",
        }
        if unknown:
            raise ConfigError(f"unknown sweep spec keys: {sorted(unknown)}")
        axes_payload = payload.get("axes")
        if not isinstance(axes_payload, Mapping) or not axes_payload:
            raise ConfigError("spec 'axes' must be a non-empty mapping of field -> values")
        axes = tuple(
            SweepSpec(field=str(axis_field), values=tuple(values))
            for axis_field, values in axes_payload.items()
        )
        workload_payload = payload.get("workload", {})
        return cls(
            name=str(payload.get("name", "")),
            axes=axes,
            base=payload.get("base", {}),
            methods=tuple(payload.get("methods", ("plp",))),
            seeds=int(payload.get("seeds", 1)),
            seed=int(payload.get("seed", 7)),
            workload=WorkloadSpec.from_dict(workload_payload),
            subsets=payload.get("subsets", {}),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "GridSpec":
        """Load a spec from a JSON file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read sweep spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"sweep spec {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def spec_hash(self) -> str:
        """Content hash gating manifest compatibility on resume."""
        return hashlib.sha256(_canonical_json(self.as_dict()).encode()).hexdigest()[:16]

    def subset(self, subset_name: str) -> "GridSpec":
        """The named subset as a standalone spec.

        A subset may restrict axis values (to a subset of the parent's),
        lower ``seeds``, and restrict ``methods``; restricted runs keep
        the same content-addressed ids as in the parent sweep.
        """
        if subset_name not in self.subsets:
            raise ConfigError(
                f"unknown subset {subset_name!r}; spec defines {sorted(self.subsets)}"
            )
        subset = dict(self.subsets[subset_name])
        unknown = set(subset) - {"axes", "seeds", "methods"}
        if unknown:
            raise ConfigError(f"unknown subset keys: {sorted(unknown)}")
        restricted = dict(subset.get("axes", {}))
        axes = []
        by_field = {axis.field: axis for axis in self.axes}
        for axis_field in restricted:
            if axis_field not in by_field:
                raise ConfigError(f"subset restricts unknown axis {axis_field!r}")
        for axis in self.axes:
            if axis.field in restricted:
                values = tuple(restricted[axis.field])
                parent_values = set(map(repr, axis.values))
                for value in values:
                    if repr(value) not in parent_values:
                        raise ConfigError(
                            f"subset value {value!r} for axis {axis.field!r} "
                            "is not in the parent sweep"
                        )
                axes.append(SweepSpec(field=axis.field, values=values, label=axis.label))
            else:
                axes.append(axis)
        return GridSpec(
            name=f"{self.name}:{subset_name}",
            axes=tuple(axes),
            base=self.base,
            methods=tuple(subset.get("methods", self.methods)),
            seeds=int(subset.get("seeds", self.seeds)),
            seed=self.seed,
            workload=self.workload,
            subsets={},
        )


@dataclass(frozen=True)
class SweepRun:
    """One unit of sweep work: a grid point x method x seed index."""

    run_id: str
    index: int
    overrides: Mapping[str, Any]
    method: str
    seed_index: int

    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON representation for the manifest."""
        return {
            "run_id": self.run_id,
            "index": self.index,
            "overrides": dict(self.overrides),
            "method": self.method,
            "seed_index": self.seed_index,
        }


def _run_identity(
    workload: WorkloadSpec,
    base: Mapping[str, Any],
    overrides: Mapping[str, Any],
    method: str,
    seed: int,
    seed_index: int,
) -> str:
    """Content-addressed run id: independent of grid position/order."""
    material = {
        "workload": workload.as_dict(),
        "base": dict(base),
        "overrides": dict(overrides),
        "method": method,
        "seed": int(seed),
        "seed_index": int(seed_index),
    }
    return hashlib.sha256(_canonical_json(material).encode()).hexdigest()[:16]


def expand_spec(spec: GridSpec) -> list[SweepRun]:
    """Expand a :class:`GridSpec` into its deterministic run list.

    The cartesian product of the axes (first axis slowest-varying) is
    crossed with methods and seed indices; every combination's config is
    validated eagerly so a bad grid fails before any work is queued.
    """
    combos: list[dict[str, Any]] = [{}]
    for axis in spec.axes:
        combos = [
            {**combo, axis.field: value}
            for combo in combos
            for value in axis.values
        ]
    base_config = PLPConfig().with_overrides(**dict(spec.base))
    runs: list[SweepRun] = []
    seen: set[str] = set()
    for combo in combos:
        base_config.with_overrides(**combo)  # fail fast on invalid grid points
        for method in spec.methods:
            for seed_index in range(int(spec.seeds)):
                run_id = _run_identity(
                    spec.workload, spec.base, combo, method, spec.seed, seed_index
                )
                if run_id in seen:
                    raise ConfigError(
                        f"duplicate run identity {run_id} in sweep {spec.name!r}"
                    )
                seen.add(run_id)
                runs.append(
                    SweepRun(
                        run_id=run_id,
                        index=len(runs),
                        overrides=dict(combo),
                        method=method,
                        seed_index=seed_index,
                    )
                )
    return runs


class SweepMetrics:
    """Registers and feeds the sweep orchestrator's metric families.

    Families (all prefixed ``repro_sweep_``): ``runs_total`` (counter,
    runs in dispatched sweeps), ``executed_total`` / ``skipped_total`` /
    ``failed_total`` (counters), ``pool_rebuilds_total`` (counter,
    process-pool rebuilds after a worker death), and ``run_seconds``
    (histogram of per-run training+evaluation wall time).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.runs = registry.counter(
            "repro_sweep_runs_total", "Runs in dispatched sweeps"
        )
        self.executed = registry.counter(
            "repro_sweep_executed_total", "Runs executed by this process"
        )
        self.skipped = registry.counter(
            "repro_sweep_skipped_total", "Completed runs skipped on resume"
        )
        self.failed = registry.counter(
            "repro_sweep_failed_total", "Runs that ended with a training error"
        )
        self.pool_rebuilds = registry.counter(
            "repro_sweep_pool_rebuilds_total",
            "Process-pool rebuilds after a worker death",
        )
        self.run_seconds = registry.histogram(
            "repro_sweep_run_seconds", "Per-run train+evaluate wall time"
        )


@dataclass(slots=True)
class SweepReport:
    """Accounting for one :func:`run_sweep` invocation."""

    name: str
    spec_hash: str
    total: int
    executed: int
    skipped: int
    failed: int
    pool_rebuilds: int
    halted: bool
    wall_seconds: float
    out_dir: str
    aggregate_path: str | None
    table: ResultTable | None

    def summary(self) -> str:
        """One-line human summary."""
        state = "halted" if self.halted else "complete"
        return (
            f"sweep {self.name}: {state} — {self.total} runs "
            f"({self.executed} executed, {self.skipped} skipped, "
            f"{self.failed} failed, {self.pool_rebuilds} pool rebuilds) "
            f"in {self.wall_seconds:.1f}s"
        )


class _WorkerState:
    """Per-process sweep execution state (runner + seed root).

    Single-writer: each worker process owns its instance exclusively;
    the coordinator process is the only writer of manifest, outcome
    files, and aggregates.
    """

    def __init__(self, runner: ExperimentRunner, sweep_seed: int) -> None:
        self._runner = runner
        self._sweep_seed = int(sweep_seed)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "_WorkerState":
        """Rebuild the deterministic workload + runner from a spec dict."""
        spec = GridSpec.from_dict(payload)
        train, holdout = spec.workload.build()
        base_config = PLPConfig().with_overrides(**dict(spec.base))
        runner = ExperimentRunner(
            train,
            holdout,
            base_config=base_config,
            seed=spec.seed,
            k_values=spec.workload.k_values,
        )
        return cls(runner, spec.seed)

    def execute(self, run: SweepRun) -> RunOutcome:
        """Run one grid point with its draw-free derived trainer stream."""
        tag = int(run.run_id[:8], 16)  # fits a uint32 spawn-key word
        child = derive(self._sweep_seed, _SWEEP_KEY, tag, run.seed_index)
        return self._runner.run_one(
            overrides=dict(run.overrides),
            method=run.method,
            rng=child,
        )


_WORKER_STATE: _WorkerState | None = None
_FAULT_MARKER: str | None = None


def _init_sweep_worker(
    payload: dict[str, Any], fault_marker: str | None, max_workers: int
) -> None:
    """Process-pool initializer: build this worker's runner once.

    Also caps the worker's BLAS threads at its share of the cores, as
    the sharded executor's workers do: forked workers inherit the
    coordinator's one-thread-per-core OpenBLAS and would oversubscribe
    the host. The cap never raises the inherited count. SciPy brings its
    own OpenBLAS, mapped when ``scipy.special`` loads; every run builds a
    privacy ledger, which loads it, so it is loaded here first and the
    cap covers it too.
    """
    global _WORKER_STATE, _FAULT_MARKER
    load_special_functions()
    limit_blas_threads(available_cores() // max_workers)
    _WORKER_STATE = _WorkerState.from_payload(payload)
    _FAULT_MARKER = fault_marker


def _maybe_inject_fault() -> None:
    """Die abruptly once if this worker claims the fault marker (tests)."""
    marker = _FAULT_MARKER
    if not marker:
        return
    claimed = marker + ".claimed"
    try:
        os.replace(marker, claimed)
    except OSError:
        return  # another worker claimed it (or it was never created)
    os._exit(1)


def _sweep_job(
    run_id: str,
    index: int,
    overrides: dict[str, Any],
    method: str,
    seed_index: int,
) -> tuple[str, dict[str, Any]]:
    """Execute one run inside a pool worker; returns its outcome dict."""
    _maybe_inject_fault()
    if _WORKER_STATE is None:  # pragma: no cover - initializer contract
        raise ExecutorError("sweep worker used before initialization")
    run = SweepRun(
        run_id=run_id,
        index=index,
        overrides=dict(overrides),
        method=method,
        seed_index=seed_index,
    )
    return run_id, _WORKER_STATE.execute(run).as_dict()


def _outcome_path(out_dir: Path, run_id: str) -> Path:
    return out_dir / "runs" / f"{run_id}.json"


def _write_outcome(out_dir: Path, run: SweepRun, outcome: RunOutcome) -> None:
    """Atomically persist one run's outcome (crash-safe resume state)."""
    payload = {
        "run_id": run.run_id,
        "index": run.index,
        "seed_index": run.seed_index,
        "outcome": outcome.as_dict(),
    }
    _atomic_write_text(
        _outcome_path(out_dir, run.run_id), json.dumps(payload, sort_keys=True)
    )


def _load_completed(out_dir: Path, runs: Sequence[SweepRun]) -> dict[str, RunOutcome]:
    """Outcomes already on disk for this sweep's runs (corrupt = rerun)."""
    completed: dict[str, RunOutcome] = {}
    for run in runs:
        path = _outcome_path(out_dir, run.run_id)
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("run_id") != run.run_id:
                continue
            completed[run.run_id] = RunOutcome.from_dict(payload["outcome"])
        except (OSError, ValueError, KeyError, ConfigError):
            continue
    return completed


def _prepare_manifest(
    spec: GridSpec, runs: Sequence[SweepRun], out_dir: Path, resume: bool
) -> bool:
    """Create or check the ``sweep.json`` manifest; returns resumability.

    Returns ``True`` when existing outcome files should be honored
    (a compatible manifest was already present), ``False`` for a fresh
    sweep (any stale outcome files are cleared).
    """
    manifest_path = out_dir / "sweep.json"
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable sweep manifest {manifest_path}: {exc}") from exc
        if manifest.get("manifest_version") != MANIFEST_VERSION:
            raise ConfigError(
                f"sweep manifest version {manifest.get('manifest_version')!r} "
                f"is not supported (expected {MANIFEST_VERSION})"
            )
        if manifest.get("spec_hash") != spec.spec_hash():
            raise ConfigError(
                f"{out_dir} holds a different sweep "
                f"(manifest spec_hash {manifest.get('spec_hash')!r} != "
                f"{spec.spec_hash()!r}); use a fresh output directory"
            )
        if not resume:
            raise ConfigError(
                f"{out_dir} already holds this sweep; pass resume=True "
                "(--resume) to continue it, or choose a fresh directory"
            )
        return True
    # Fresh sweep: stale outcome files (e.g. from a deleted manifest)
    # must not leak into the aggregate.
    runs_dir = out_dir / "runs"
    for stale in runs_dir.glob("*.json"):
        stale.unlink()
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "spec": spec.as_dict(),
        "runs": [run.as_dict() for run in runs],
    }
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))
    return False


def validate_aggregate(payload: Mapping[str, Any]) -> None:
    """Schema-check an ``aggregate.json`` payload.

    Raises:
        ConfigError: on any violation.
    """
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(
        payload.get("schema_version") == AGGREGATE_SCHEMA_VERSION,
        f"schema_version must be {AGGREGATE_SCHEMA_VERSION}",
    )
    expect(bool(payload.get("name")), "name must be non-empty")
    expect(
        isinstance(payload.get("spec_hash"), str) and len(payload["spec_hash"]) == 16,
        "spec_hash must be a 16-char hash",
    )
    expect(isinstance(payload.get("spec"), dict), "spec must be a dict")
    counts = payload.get("counts")
    runs = payload.get("runs")
    expect(isinstance(counts, dict), "counts must be a dict")
    expect(isinstance(runs, list) and runs, "runs must be a non-empty list")
    if isinstance(counts, dict) and isinstance(runs, list):
        ok_runs = [run for run in runs if isinstance(run, dict) and run.get("error") is None]
        expect(counts.get("total") == len(runs), "counts.total must match len(runs)")
        expect(counts.get("ok") == len(ok_runs), "counts.ok must match unfailed runs")
        expect(
            counts.get("failed") == len(runs) - len(ok_runs),
            "counts.failed must match failed runs",
        )
        seen_ids: set[str] = set()
        for position, run in enumerate(runs):
            if not isinstance(run, dict):
                problems.append(f"runs[{position}] must be a dict")
                continue
            run_id = run.get("run_id")
            expect(
                isinstance(run_id, str) and len(run_id) == 16,
                f"runs[{position}].run_id must be a 16-char id",
            )
            if isinstance(run_id, str):
                expect(run_id not in seen_ids, f"duplicate run_id {run_id}")
                seen_ids.add(run_id)
            expect(run.get("index") == position, f"runs[{position}] out of order")
            expect(run.get("method") in _METHODS, f"runs[{position}].method invalid")
            if run.get("error") is None:
                hit_rate = run.get("hit_rate")
                expect(
                    isinstance(hit_rate, dict) and len(hit_rate) > 0,
                    f"runs[{position}].hit_rate must be non-empty",
                )
            expect(
                "train_seconds" not in run,
                f"runs[{position}] must not carry wall-clock timings",
            )
    expect(isinstance(payload.get("figures"), dict), "figures must be a dict")
    if problems:
        raise ConfigError(
            "invalid sweep aggregate: " + "; ".join(problems)
        )


def _aggregate_run_entry(run: SweepRun, outcome: RunOutcome) -> dict[str, Any]:
    """One deterministic aggregate row (no wall-clock timings)."""
    return {
        "run_id": run.run_id,
        "index": run.index,
        "method": run.method,
        "seed_index": run.seed_index,
        "parameters": dict(run.overrides),
        "hit_rate": {str(k): v for k, v in outcome.hit_rate.items()},
        "steps": outcome.steps,
        "epsilon_spent": outcome.epsilon_spent,
        "error": outcome.error,
    }


def _write_figure_csvs(
    spec: GridSpec,
    runs: Sequence[SweepRun],
    outcomes: Mapping[str, RunOutcome],
    out_dir: Path,
) -> dict[str, str]:
    """One CSV per swept axis under ``figures/``; returns name -> path."""
    figures_dir = out_dir / "figures"
    figures_dir.mkdir(exist_ok=True)
    written: dict[str, str] = {}
    for axis in spec.axes:
        relative = f"figures/{axis.field}.csv"
        path = figures_dir / f"{axis.field}.csv"
        with path.open("w", encoding="utf-8", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(
                [axis.label, "method", "seed_index"]
                + [f"hr@{k}" for k in spec.workload.k_values]
                + ["steps", "epsilon_spent", "status"]
            )
            for run in runs:
                outcome = outcomes[run.run_id]
                if outcome.ok:
                    hr_cells = [
                        repr(outcome.hit_rate[k]) for k in spec.workload.k_values
                    ]
                    tail = [str(outcome.steps), repr(outcome.epsilon_spent), "ok"]
                else:
                    hr_cells = ["" for _ in spec.workload.k_values]
                    tail = ["", "", "failed"]
                writer.writerow(
                    [repr(run.overrides[axis.field]), run.method, str(run.seed_index)]
                    + hr_cells
                    + tail
                )
        written[axis.field] = relative
    return written


def _aggregate(
    spec: GridSpec,
    runs: Sequence[SweepRun],
    outcomes: Mapping[str, RunOutcome],
    out_dir: Path,
) -> tuple[Path, ResultTable]:
    """Merge outcomes into the table, CSVs, and ``aggregate.json``."""
    table = ResultTable(title=f"Sweep {spec.name}")
    for run in runs:
        table.append(outcomes[run.run_id])
    figures = _write_figure_csvs(spec, runs, outcomes, out_dir)
    ok_count = sum(1 for run in runs if outcomes[run.run_id].ok)
    payload = {
        "schema_version": AGGREGATE_SCHEMA_VERSION,
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "spec": spec.as_dict(),
        "counts": {
            "total": len(runs),
            "ok": ok_count,
            "failed": len(runs) - ok_count,
        },
        "runs": [_aggregate_run_entry(run, outcomes[run.run_id]) for run in runs],
        "figures": figures,
    }
    validate_aggregate(payload)
    aggregate_path = out_dir / "aggregate.json"
    _atomic_write_text(aggregate_path, json.dumps(payload, indent=2, sort_keys=True))
    return aggregate_path, table


def _run_parallel(
    spec: GridSpec,
    pending: Sequence[SweepRun],
    *,
    workers: int,
    fault_marker: str | None,
    on_outcome: Callable[[SweepRun, RunOutcome], bool],
    max_pool_rebuilds: int,
) -> tuple[bool, int]:
    """Dispatch ``pending`` across a process pool with death-retry.

    ``on_outcome`` persists each result and returns ``True`` to halt
    dispatch (halt budget exhausted). A worker death poisons the whole
    pool (``BrokenProcessPool``); completed results are kept, the pool
    is rebuilt, and only still-missing runs are resubmitted — reruns are
    deterministic because every run is a pure function of its derived
    seed. Returns ``(halted, pool_rebuilds)``.
    """
    payload = spec.as_dict()
    remaining: dict[str, SweepRun] = {run.run_id: run for run in pending}
    rebuilds = 0
    halted = False
    while remaining and not halted:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_sweep_worker,
            initargs=(payload, fault_marker, workers),
        )
        broken = False
        try:
            futures = {
                pool.submit(
                    _sweep_job,
                    run.run_id,
                    run.index,
                    dict(run.overrides),
                    run.method,
                    run.seed_index,
                ): run
                for run in remaining.values()
            }
            waiting = set(futures)
            while waiting and not halted:
                done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in done:
                    run = futures[future]
                    try:
                        _, outcome_payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception:
                        # The job itself never raises for training errors
                        # (run_one converts those); anything here is an
                        # orchestration failure worth recording per-run.
                        outcome_payload = RunOutcome(
                            parameters=dict(run.overrides),
                            method=run.method,
                            hit_rate={},
                            steps=0,
                            epsilon_spent=0.0,
                            train_seconds=0.0,
                            error=traceback.format_exc(),
                        ).as_dict()
                    outcome = RunOutcome.from_dict(outcome_payload)
                    remaining.pop(run.run_id, None)
                    if on_outcome(run, outcome):
                        halted = True
                        break
                if broken:
                    break
        except BrokenProcessPool:  # pragma: no cover - submit-time death
            broken = True
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if broken and remaining and not halted:
            rebuilds += 1
            if rebuilds > max_pool_rebuilds:
                raise ExecutorError(
                    f"sweep worker pool died {rebuilds} times; giving up with "
                    f"{len(remaining)} runs outstanding"
                )
    return halted, rebuilds


def run_sweep(
    spec: GridSpec,
    out_dir: str | Path,
    *,
    workers: int = 1,
    resume: bool = False,
    halt_after: int | None = None,
    fault_marker: str | None = None,
    max_pool_rebuilds: int = 3,
    observability: Observability | None = None,
) -> SweepReport:
    """Execute a sweep with resumable state under ``out_dir``.

    Args:
        spec: the declarative grid.
        out_dir: output directory (manifest, per-run outcomes,
            aggregate, figure CSVs).
        workers: process-pool width; ``1`` runs in-process.
        resume: continue a previous invocation, skipping completed runs
            by content-addressed id. Required when ``out_dir`` already
            holds this sweep's manifest.
        halt_after: stop dispatching after this many *newly executed*
            runs (deterministic mid-sweep kill for tests/CI); the
            partial state on disk is resumable.
        fault_marker: path to a fault-injection marker file; the first
            worker to claim it dies abruptly (tests only).
        max_pool_rebuilds: worker-death retries before giving up.
        observability: optional bundle fed ``repro_sweep_*`` metrics
            and ``sweep``/``sweep.run`` spans.

    Returns:
        A :class:`SweepReport`; ``aggregate_path``/``table`` are ``None``
        when the sweep halted before completing.

    Raises:
        ConfigError: invalid spec, incompatible manifest, or a
            non-resume launch into a directory that already holds this
            sweep.
        ExecutorError: the worker pool kept dying past the retry budget.
    """
    started = time.perf_counter()
    if int(workers) < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if halt_after is not None and int(halt_after) < 1:
        raise ConfigError(f"halt_after must be >= 1, got {halt_after}")
    runs = expand_spec(spec)
    out_path = Path(out_dir)
    (out_path / "runs").mkdir(parents=True, exist_ok=True)
    honor_existing = _prepare_manifest(spec, runs, out_path, resume)
    completed = _load_completed(out_path, runs) if honor_existing else {}
    pending = [run for run in runs if run.run_id not in completed]
    skipped = len(runs) - len(pending)

    metrics: SweepMetrics | None = None
    if observability is not None and observability.metrics is not None:
        metrics = SweepMetrics(observability.metrics)
        metrics.runs.inc(len(runs))
        metrics.skipped.inc(skipped)

    executed = 0
    failed_new = 0
    budget = int(halt_after) if halt_after is not None else None

    def record(run: SweepRun, outcome: RunOutcome) -> bool:
        """Persist one fresh outcome; True = halt budget exhausted."""
        nonlocal executed, failed_new
        _write_outcome(out_path, run, outcome)
        completed[run.run_id] = outcome
        executed += 1
        if not outcome.ok:
            failed_new += 1
        if metrics is not None:
            metrics.executed.inc()
            if not outcome.ok:
                metrics.failed.inc()
            metrics.run_seconds.observe(outcome.train_seconds)
        if observability is not None:
            observability.record_span(
                "sweep.run",
                outcome.train_seconds,
                run_id=run.run_id,
                method=run.method,
                ok=outcome.ok,
            )
        return budget is not None and executed >= budget

    halted = False
    rebuilds = 0
    if pending:
        if int(workers) == 1:
            state = _WorkerState.from_payload(spec.as_dict())
            for run in pending:
                if record(run, state.execute(run)):
                    halted = run is not pending[-1]
                    break
        else:
            halted, rebuilds = _run_parallel(
                spec,
                pending,
                workers=int(workers),
                fault_marker=fault_marker,
                on_outcome=record,
                max_pool_rebuilds=max_pool_rebuilds,
            )
            halted = halted and len(completed) < len(runs)
            if metrics is not None and rebuilds:
                metrics.pool_rebuilds.inc(rebuilds)

    aggregate_path: Path | None = None
    table: ResultTable | None = None
    if not halted:
        aggregate_path, table = _aggregate(spec, runs, completed, out_path)

    wall = time.perf_counter() - started
    if observability is not None:
        observability.record_span(
            "sweep",
            wall,
            sweep=spec.name,
            runs=len(runs),
            executed=executed,
            skipped=skipped,
            halted=halted,
        )
    failed_total = sum(1 for outcome in completed.values() if not outcome.ok)
    return SweepReport(
        name=spec.name,
        spec_hash=spec.spec_hash(),
        total=len(runs),
        executed=executed,
        skipped=skipped,
        failed=failed_total if not halted else failed_new,
        pool_rebuilds=rebuilds,
        halted=halted,
        wall_seconds=wall,
        out_dir=str(out_path),
        aggregate_path=str(aggregate_path) if aggregate_path is not None else None,
        table=table,
    )
