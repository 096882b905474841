"""Per-step noise schedules: flexible budget allocation across training.

The paper's future work (Section 7): "we plan to investigate flexible
privacy budget allocation strategies across different stages of the
learning process, such that accuracy is further improved." A *noise
schedule* assigns each step its own noise multiplier; the privacy ledger
already accounts heterogeneous steps exactly (RDP adds per step whatever
each step's sigma was), so any schedule composes soundly.

The intuition explored here: early steps benefit from larger updates (the
model is far from convergence and tolerates noise), while late steps need
precision — so a *decaying* sigma spends the budget slowly at first and
faster near the end, trading step count against per-step fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigError


class NoiseSchedule:
    """Interface: the noise multiplier to use at a given (1-based) step."""

    def sigma_at(self, step: int) -> float:
        """Noise multiplier for ``step`` (>= 1)."""
        raise NotImplementedError

    def _validate_step(self, step: int) -> None:
        if step < 1:
            raise ConfigError(f"step must be >= 1, got {step}")


@dataclass(frozen=True, slots=True)
class ConstantSchedule(NoiseSchedule):
    """The paper's setting: one sigma for the whole run."""

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    def sigma_at(self, step: int) -> float:
        self._validate_step(step)
        return self.sigma


@dataclass(frozen=True, slots=True)
class LinearDecaySchedule(NoiseSchedule):
    """Linear interpolation from ``start_sigma`` to ``end_sigma``.

    Attributes:
        start_sigma: sigma at step 1.
        end_sigma: sigma at ``decay_steps`` and beyond.
        decay_steps: steps over which the interpolation runs.
    """

    start_sigma: float
    end_sigma: float
    decay_steps: int

    def __post_init__(self) -> None:
        if min(self.start_sigma, self.end_sigma) < 0.0:
            raise ConfigError("sigmas must be >= 0")
        if self.decay_steps < 1:
            raise ConfigError(f"decay_steps must be >= 1, got {self.decay_steps}")

    def sigma_at(self, step: int) -> float:
        self._validate_step(step)
        if step >= self.decay_steps:
            return self.end_sigma
        fraction = (step - 1) / max(1, self.decay_steps - 1)
        return self.start_sigma + fraction * (self.end_sigma - self.start_sigma)


@dataclass(frozen=True, slots=True)
class ExponentialDecaySchedule(NoiseSchedule):
    """Geometric decay ``sigma * rate^(step-1)`` with a floor.

    Attributes:
        start_sigma: sigma at step 1.
        decay_rate: multiplicative factor per step, in (0, 1].
        floor: smallest sigma ever returned (keeps steps accountable).
    """

    start_sigma: float
    decay_rate: float
    floor: float = 0.5

    def __post_init__(self) -> None:
        if self.start_sigma < 0.0:
            raise ConfigError(f"start_sigma must be >= 0, got {self.start_sigma}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ConfigError(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        if self.floor < 0.0:
            raise ConfigError(f"floor must be >= 0, got {self.floor}")

    def sigma_at(self, step: int) -> float:
        self._validate_step(step)
        return max(self.floor, self.start_sigma * self.decay_rate ** (step - 1))


@dataclass(frozen=True, slots=True)
class StepDecaySchedule(NoiseSchedule):
    """Piecewise-constant sigma: drop by ``factor`` every ``period`` steps."""

    start_sigma: float
    period: int
    factor: float = 0.7
    floor: float = 0.5

    def __post_init__(self) -> None:
        if self.start_sigma < 0.0:
            raise ConfigError(f"start_sigma must be >= 0, got {self.start_sigma}")
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError(f"factor must be in (0, 1], got {self.factor}")
        if self.floor < 0.0:
            raise ConfigError(f"floor must be >= 0, got {self.floor}")

    def sigma_at(self, step: int) -> float:
        self._validate_step(step)
        drops = (step - 1) // self.period
        return max(self.floor, self.start_sigma * self.factor**drops)
