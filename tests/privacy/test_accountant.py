"""Tests for MomentsAccountant, PrivacyLedger, composition and calibration."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigError, PrivacyBudgetExceeded
from repro.privacy.accountant import (
    MomentsAccountant,
    PrivacyLedger,
    advanced_composition_epsilon,
    calibrate_noise_multiplier,
    compute_epsilon,
    max_steps_for_budget,
    naive_composition_epsilon,
)
from repro.privacy.accountant.calibration import steps_per_epoch


class TestMomentsAccountant:
    def test_matches_direct_computation(self):
        accountant = MomentsAccountant()
        for _ in range(100):
            accountant.step(noise_multiplier=2.5, sampling_probability=0.06)
        direct = compute_epsilon(0.06, 2.5, 100, 2e-4)
        assert accountant.get_epsilon(2e-4) == pytest.approx(direct, rel=1e-9)

    def test_count_argument_equivalent_to_loop(self):
        looped = MomentsAccountant()
        for _ in range(50):
            looped.step(1.5, 0.1)
        batched = MomentsAccountant()
        batched.step(1.5, 0.1, count=50)
        assert batched.get_epsilon(1e-5) == pytest.approx(looped.get_epsilon(1e-5))

    def test_heterogeneous_steps_accumulate(self):
        accountant = MomentsAccountant()
        accountant.step(2.5, 0.06, count=10)
        eps_a = accountant.get_epsilon(1e-4)
        accountant.step(1.0, 0.1, count=10)
        assert accountant.get_epsilon(1e-4) > eps_a

    def test_reset(self):
        accountant = MomentsAccountant()
        accountant.step(1.5, 0.1, count=10)
        accountant.reset()
        assert accountant.steps == 0
        assert accountant.get_epsilon(1e-5) == 0.0

    def test_zero_steps_zero_epsilon(self):
        assert MomentsAccountant().get_epsilon(1e-5) == 0.0

    def test_invalid_orders_rejected(self):
        with pytest.raises(ConfigError):
            MomentsAccountant(orders=[1.0, 2.0])
        with pytest.raises(ConfigError):
            MomentsAccountant(orders=[])


class TestPrivacyLedger:
    def test_track_and_query(self):
        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
        assert ledger.cumulative_budget_spent() == 0.0
        for _ in range(20):
            ledger.track_budget(clip_bound=0.5, noise_multiplier=2.5)
        assert len(ledger) == 20
        direct = compute_epsilon(0.06, 2.5, 20, 2e-4)
        assert ledger.cumulative_budget_spent() == pytest.approx(direct, rel=1e-9)

    def test_entries_record_parameters(self):
        ledger = PrivacyLedger(delta=1e-5, sampling_probability=0.1)
        ledger.track_budget(0.5, 1.5)
        ledger.track_budget(0.3, 2.0, sampling_probability=0.2)
        entries = ledger.entries
        assert entries[0].clip_bound == 0.5
        assert entries[0].sampling_probability == 0.1
        assert entries[1].noise_multiplier == 2.0
        assert entries[1].sampling_probability == 0.2
        assert [entry.step for entry in entries] == [0, 1]

    def test_assert_within_budget(self):
        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
        ledger.track_budget(0.5, 2.5)
        ledger.assert_within_budget(10.0)  # fine
        with pytest.raises(PrivacyBudgetExceeded):
            ledger.assert_within_budget(1e-6)

    def test_reset(self):
        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
        ledger.track_budget(0.5, 2.5)
        ledger.reset()
        assert len(ledger) == 0
        assert ledger.cumulative_budget_spent() == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            PrivacyLedger(delta=0.0, sampling_probability=0.1)
        ledger = PrivacyLedger(delta=1e-5, sampling_probability=0.1)
        with pytest.raises(ConfigError):
            ledger.track_budget(clip_bound=0.0, noise_multiplier=1.0)


class TestComposition:
    def test_naive_is_linear(self):
        assert naive_composition_epsilon(0.1, 100) == pytest.approx(10.0)

    def test_advanced_beats_naive_for_many_steps(self):
        step_eps, steps = 0.01, 10_000
        naive = naive_composition_epsilon(step_eps, steps)
        advanced, _ = advanced_composition_epsilon(step_eps, 0.0, steps, 1e-6)
        assert advanced < naive

    def test_advanced_delta_bookkeeping(self):
        _, delta_total = advanced_composition_epsilon(0.1, 1e-7, 100, 1e-6)
        assert delta_total == pytest.approx(100 * 1e-7 + 1e-6)

    def test_moments_accountant_beats_advanced(self):
        # Same per-step Gaussian mechanism at sigma = 4, q = 1:
        # classic per-step epsilon vs moments accountant over 1000 steps.
        sigma, delta, steps = 4.0, 1e-6, 1000
        step_eps = math.sqrt(2 * math.log(1.25 / delta)) / sigma
        advanced, _ = advanced_composition_epsilon(step_eps, delta, steps, delta)
        accountant = compute_epsilon(1.0, sigma, steps, delta * (steps + 1))
        assert accountant < advanced

    def test_zero_steps(self):
        assert naive_composition_epsilon(0.5, 0) == 0.0
        eps, delta = advanced_composition_epsilon(0.5, 1e-7, 0, 1e-6)
        assert eps == 0.0


class TestCalibration:
    def test_noise_calibration_hits_target(self):
        target, delta, q, steps = 2.0, 2e-4, 0.06, 300
        sigma = calibrate_noise_multiplier(target, delta, q, steps)
        achieved = compute_epsilon(q, sigma, steps, delta)
        assert achieved <= target
        # And not wastefully large: slightly smaller sigma must overshoot.
        overshoot = compute_epsilon(q, sigma - 0.05, steps, delta)
        assert overshoot > target

    def test_max_steps_is_tight(self):
        budget, delta, q, sigma = 2.0, 2e-4, 0.06, 2.5
        steps = max_steps_for_budget(budget, delta, q, sigma)
        assert compute_epsilon(q, sigma, steps, delta) < budget
        assert compute_epsilon(q, sigma, steps + 1, delta) >= budget

    @pytest.mark.parametrize("steps", [10, 1000])
    @pytest.mark.parametrize("q", [0.01, 0.2])
    @pytest.mark.parametrize("target", [0.5, 4.0])
    def test_calibration_and_step_count_are_inverses(self, target, q, steps):
        delta, tolerance = 2e-4, 1e-3
        sigma = calibrate_noise_multiplier(target, delta, q, steps, tolerance=tolerance)
        # Calibration allows epsilon <= target; the step count stops at the
        # first step whose epsilon reaches the budget.
        assert max_steps_for_budget(target, delta, q, sigma) >= steps - 1
        # Any sigma a tolerance smaller overshoots the target within the steps.
        assert max_steps_for_budget(target, delta, q, sigma - tolerance) < steps

    def test_max_steps_zero_when_one_step_exceeds(self):
        # Tiny noise: even one step blows a small budget.
        assert max_steps_for_budget(0.01, 1e-5, 0.5, 0.1) == 0

    def test_max_steps_zero_noise(self):
        assert max_steps_for_budget(1.0, 1e-5, 0.1, 0.0) == 0

    def test_more_budget_more_steps(self):
        a = max_steps_for_budget(1.0, 2e-4, 0.06, 2.5)
        b = max_steps_for_budget(4.0, 2e-4, 0.06, 2.5)
        assert a < b

    def test_larger_sigma_more_steps(self):
        a = max_steps_for_budget(2.0, 2e-4, 0.06, 1.5)
        b = max_steps_for_budget(2.0, 2e-4, 0.06, 3.0)
        assert a < b

    def test_smaller_q_more_steps(self):
        # "A lower sampling rate ... the amount of budget consumed in each
        # step is decreased" (Section 5.2).
        a = max_steps_for_budget(2.0, 2e-4, 0.12, 2.5)
        b = max_steps_for_budget(2.0, 2e-4, 0.04, 2.5)
        assert a < b

    def test_steps_per_epoch(self):
        assert steps_per_epoch(0.06) == 17
        assert steps_per_epoch(1.0) == 1
        with pytest.raises(ConfigError):
            steps_per_epoch(0.0)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_noise_multiplier(
                0.001, 1e-5, 0.5, 10_000, sigma_bounds=(0.1, 1.0)
            )
