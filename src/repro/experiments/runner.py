"""Parameter-sweep runner for private location prediction experiments.

One :class:`ExperimentRunner` owns a (train, holdout) pair and evaluates
training configurations on the paper's leave-one-out protocol; a
:class:`SweepSpec` names a :class:`repro.core.config.PLPConfig` field and
the values to sweep. Results come back as a :class:`ResultTable` with
plain-text rendering and simple series extraction for plotting.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.config import PLPConfig
from repro.core.dpsgd import UserLevelDPSGD
from repro.core.trainer import PrivateLocationPredictor
from repro.data.checkins import CheckinDataset
from repro.data.splitting import sessionize_dataset
from repro.eval.evaluator import LeaveOneOutEvaluator
from repro.exceptions import ConfigError
from repro.rng import RngLike


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """One swept hyper-parameter.

    Attributes:
        field: a :class:`PLPConfig` field name (e.g. ``"grouping_factor"``).
        values: the values to try, in report order.
        label: column label in the rendered table (defaults to ``field``).
    """

    field: str
    values: tuple
    label: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("SweepSpec.values must be non-empty")
        if self.field not in PLPConfig.__dataclass_fields__:
            raise ConfigError(f"unknown PLPConfig field {self.field!r}")
        if not self.label:
            object.__setattr__(self, "label", self.field)


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """One training run's results.

    A run that raised during training/evaluation is recorded rather than
    aborting its sweep: ``error`` carries the formatted traceback, the
    metric fields are zeroed, and :attr:`ok` is ``False``.
    """

    parameters: dict[str, Any]
    method: str
    hit_rate: dict[int, float]
    steps: int
    epsilon_spent: float
    train_seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the run completed (no training/evaluation error)."""
        return self.error is None

    def hr(self, k: int = 10) -> float:
        """HR@k shortcut.

        Raises:
            ConfigError: when the run failed and carries no hit rates.
        """
        if self.error is not None:
            raise ConfigError(
                f"run {self.parameters!r} failed; no HR@{k} available "
                f"(see RunOutcome.error)"
            )
        return self.hit_rate[k]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (``hit_rate`` keys become strings)."""
        return {
            "parameters": dict(self.parameters),
            "method": self.method,
            "hit_rate": {str(k): v for k, v in self.hit_rate.items()},
            "steps": self.steps,
            "epsilon_spent": self.epsilon_spent,
            "train_seconds": self.train_seconds,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunOutcome":
        """Inverse of :meth:`as_dict`.

        Raises:
            ConfigError: on a malformed payload.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"RunOutcome payload must be a dict, got {type(payload).__name__}")
        try:
            return cls(
                parameters=dict(payload["parameters"]),
                method=str(payload["method"]),
                hit_rate={int(k): float(v) for k, v in payload["hit_rate"].items()},
                steps=int(payload["steps"]),
                epsilon_spent=float(payload["epsilon_spent"]),
                train_seconds=float(payload["train_seconds"]),
                error=payload.get("error"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed RunOutcome payload: {exc}") from exc


@dataclass(slots=True)
class ResultTable:
    """Sweep results with text rendering and series extraction."""

    title: str
    outcomes: list[RunOutcome] = field(default_factory=list)

    def append(self, outcome: RunOutcome) -> None:
        """Add one run's outcome."""
        self.outcomes.append(outcome)

    def series(self, parameter: str, k: int = 10) -> list[tuple[Any, float]]:
        """``(parameter value, HR@k)`` points in insertion order.

        Failed runs carry no hit rates and are skipped.
        """
        return [
            (outcome.parameters.get(parameter), outcome.hr(k))
            for outcome in self.outcomes
            if outcome.ok
        ]

    def failed(self) -> list[RunOutcome]:
        """The failed outcomes, in insertion order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def best(self, k: int = 10) -> RunOutcome:
        """The completed outcome with the highest HR@k.

        Raises:
            ConfigError: on an empty table or when every run failed.
        """
        completed = [outcome for outcome in self.outcomes if outcome.ok]
        if not completed:
            raise ConfigError("result table has no completed runs")
        return max(completed, key=lambda outcome: outcome.hr(k))

    def render(self, k_values: Sequence[int] = (10,)) -> str:
        """Fixed-width text table of the results."""
        parameter_names = sorted(
            {name for outcome in self.outcomes for name in outcome.parameters}
        )
        headers = (
            ["method"]
            + parameter_names
            + [f"HR@{k}" for k in k_values]
            + ["steps", "eps", "sec"]
        )
        rows = []
        for outcome in self.outcomes:
            if outcome.ok:
                metric_cells = [f"{outcome.hr(k):.4f}" for k in k_values]
                tail = [str(outcome.steps), f"{outcome.epsilon_spent:.2f}"]
            else:
                metric_cells = ["FAILED" for _ in k_values]
                tail = ["-", "-"]
            rows.append(
                [outcome.method]
                + [str(outcome.parameters.get(name, "")) for name in parameter_names]
                + metric_cells
                + tail
                + [f"{outcome.train_seconds:.1f}"]
            )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "-" * max(len(self.title), 1)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


class ExperimentRunner:
    """Runs PLP/DP-SGD configurations against one evaluation split.

    Args:
        train: training users' check-ins.
        holdout: held-out users for leave-one-out evaluation.
        base_config: defaults that every run starts from.
        seed: base seed; run ``i`` of a sweep uses ``seed + i`` so sweeps
            are deterministic yet independent.
        k_values: HR@k values to record.
        executor: bucket execution backend for every run (``"serial"``,
            the process pool ``"sharded"``, or a
            :class:`~repro.core.engine.BucketExecutor` shared across runs).
            Results are seed-determined and identical across executors, so
            sweeps can be parallelized freely.
        workers: worker count for ``executor="sharded"``.
    """

    def __init__(
        self,
        train: CheckinDataset,
        holdout: CheckinDataset,
        base_config: PLPConfig | None = None,
        seed: int = 0,
        k_values: Sequence[int] = (5, 10, 20),
        executor: str = "serial",
        workers: int | None = None,
    ) -> None:
        self.train = train
        self.base_config = base_config or PLPConfig()
        self.seed = int(seed)
        self.executor = executor
        self.workers = workers
        self.evaluator = LeaveOneOutEvaluator(
            sessionize_dataset(holdout), k_values=k_values
        )

    def run_one(
        self,
        overrides: dict[str, Any] | None = None,
        method: str = "plp",
        seed_offset: int = 0,
        rng: RngLike = None,
    ) -> RunOutcome:
        """Train one configuration and evaluate it.

        A run whose training or evaluation raises produces a *failed*
        :class:`RunOutcome` (``error`` holds the traceback) instead of
        aborting the sweep it belongs to. Misuse — an unknown method or
        an invalid override — still raises :class:`ConfigError`.

        Args:
            overrides: PLPConfig field overrides for this run.
            method: ``"plp"`` or ``"dpsgd"``.
            seed_offset: added to the runner's base seed.
            rng: explicit trainer seed material (overrides
                ``seed + seed_offset``); sweeps pass draw-free derived
                sub-streams here.
        """
        if method not in ("plp", "dpsgd"):
            raise ConfigError(f"method must be 'plp' or 'dpsgd', got {method!r}")
        overrides = overrides or {}
        config = self.base_config.with_overrides(**overrides)
        trainer_cls = UserLevelDPSGD if method == "dpsgd" else PrivateLocationPredictor
        trainer = trainer_cls(
            config,
            rng=rng if rng is not None else self.seed + seed_offset,
            executor=self.executor,
            workers=self.workers,
        )
        started = time.perf_counter()
        try:
            history = trainer.fit(self.train)
            result = self.evaluator.evaluate(trainer.recommender())
        except Exception:
            return RunOutcome(
                parameters=dict(overrides),
                method=method,
                hit_rate={},
                steps=0,
                epsilon_spent=0.0,
                train_seconds=time.perf_counter() - started,
                error=traceback.format_exc(),
            )
        return RunOutcome(
            parameters=dict(overrides),
            method=method,
            hit_rate=dict(result.hit_rate),
            steps=len(history),
            epsilon_spent=history.final_epsilon,
            train_seconds=time.perf_counter() - started,
        )

    def sweep(
        self,
        spec: SweepSpec,
        methods: Sequence[str] = ("plp",),
        title: str | None = None,
    ) -> ResultTable:
        """One-factor sweep: every value of ``spec`` for every method."""
        table = ResultTable(
            title=title or f"Sweep over {spec.label} ({len(spec.values)} values)"
        )
        offset = 0
        for value in spec.values:
            for method in methods:
                table.append(
                    self.run_one(
                        overrides={spec.field: value},
                        method=method,
                        seed_offset=offset,
                    )
                )
                offset += 1
        return table

    def grid(
        self,
        specs: Sequence[SweepSpec],
        method: str = "plp",
        title: str | None = None,
    ) -> ResultTable:
        """Full cartesian grid over several swept fields."""
        table = ResultTable(title=title or "Grid sweep")
        combos: list[dict[str, Any]] = [{}]
        for spec in specs:
            combos = [
                {**combo, spec.field: value}
                for combo in combos
                for value in spec.values
            ]
        for offset, overrides in enumerate(combos):
            table.append(
                self.run_one(overrides=overrides, method=method, seed_offset=offset)
            )
        return table
