"""Tests for noise schedules and their trainer integration."""

from __future__ import annotations

import pytest

from repro.core.config import PLPConfig
from repro.core.schedules import (
    ConstantSchedule,
    ExponentialDecaySchedule,
    LinearDecaySchedule,
    StepDecaySchedule,
)
from repro.core.trainer import PrivateLocationPredictor
from repro.exceptions import ConfigError


class TestConstantSchedule:
    def test_constant(self):
        schedule = ConstantSchedule(sigma=2.5)
        assert schedule.sigma_at(1) == 2.5
        assert schedule.sigma_at(1000) == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            ConstantSchedule(sigma=-1.0)

    def test_rejects_step_zero(self):
        with pytest.raises(ConfigError):
            ConstantSchedule(sigma=1.0).sigma_at(0)


class TestLinearDecay:
    def test_endpoints(self):
        schedule = LinearDecaySchedule(start_sigma=3.0, end_sigma=1.0, decay_steps=5)
        assert schedule.sigma_at(1) == pytest.approx(3.0)
        assert schedule.sigma_at(5) == pytest.approx(1.0)
        assert schedule.sigma_at(100) == pytest.approx(1.0)

    def test_midpoint(self):
        schedule = LinearDecaySchedule(start_sigma=3.0, end_sigma=1.0, decay_steps=5)
        assert schedule.sigma_at(3) == pytest.approx(2.0)

    def test_monotone_decreasing(self):
        schedule = LinearDecaySchedule(start_sigma=4.0, end_sigma=2.0, decay_steps=50)
        values = [schedule.sigma_at(step) for step in range(1, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestExponentialDecay:
    def test_geometric(self):
        schedule = ExponentialDecaySchedule(start_sigma=2.0, decay_rate=0.5, floor=0.0)
        assert schedule.sigma_at(1) == pytest.approx(2.0)
        assert schedule.sigma_at(2) == pytest.approx(1.0)
        assert schedule.sigma_at(3) == pytest.approx(0.5)

    def test_floor(self):
        schedule = ExponentialDecaySchedule(start_sigma=2.0, decay_rate=0.1, floor=0.8)
        assert schedule.sigma_at(10) == pytest.approx(0.8)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            ExponentialDecaySchedule(start_sigma=1.0, decay_rate=1.5)


class TestStepDecay:
    def test_piecewise(self):
        schedule = StepDecaySchedule(start_sigma=2.0, period=10, factor=0.5, floor=0.0)
        assert schedule.sigma_at(10) == pytest.approx(2.0)
        assert schedule.sigma_at(11) == pytest.approx(1.0)
        assert schedule.sigma_at(21) == pytest.approx(0.5)

    def test_floor(self):
        schedule = StepDecaySchedule(start_sigma=2.0, period=1, factor=0.1, floor=1.5)
        assert schedule.sigma_at(5) == pytest.approx(1.5)


class TestTrainerIntegration:
    def test_ledger_records_per_step_sigmas(self, split_dataset):
        train, _ = split_dataset
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=0.2,
            epsilon=50.0,
            max_steps=4,
        )
        schedule = LinearDecaySchedule(start_sigma=4.0, end_sigma=1.0, decay_steps=4)
        trainer = PrivateLocationPredictor(config, rng=0, noise_schedule=schedule)
        trainer.fit(train)
        recorded = [entry.noise_multiplier for entry in trainer.ledger.entries]
        assert recorded == pytest.approx([4.0, 3.0, 2.0, 1.0])

    def test_decaying_schedule_spends_budget_faster_late(self, split_dataset):
        # With decaying sigma, later steps cost more: the run must stop in
        # fewer steps than the constant schedule at the starting sigma.
        train, _ = split_dataset
        config = PLPConfig(
            embedding_dim=8,
            num_negatives=4,
            sampling_probability=0.1,
            noise_multiplier=3.0,
            epsilon=0.5,
        )
        constant = PrivateLocationPredictor(config, rng=0)
        constant_history = constant.fit(train)
        decaying = PrivateLocationPredictor(
            config,
            rng=0,
            noise_schedule=ExponentialDecaySchedule(
                start_sigma=3.0, decay_rate=0.9, floor=1.0
            ),
        )
        decaying_history = decaying.fit(train)
        assert len(decaying_history) < len(constant_history)
        assert decaying_history.stop_reason == "budget_exhausted"
