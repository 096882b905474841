"""Tests for the RDP accountant math (repro.privacy.accountant.rdp).

These pin the implementation to closed-form limits and to the qualitative
properties the moments accountant must satisfy; they are the correctness
backbone of every privacy claim the trainers make.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.privacy.accountant.rdp import (
    DEFAULT_RDP_ORDERS,
    _compute_log_a_frac,
    compute_epsilon,
    compute_rdp_sampled_gaussian,
    rdp_to_epsilon,
)
from tests.privacy.scalar_rdp_reference import scalar_log_a_frac


class TestRdpClosedForms:
    def test_no_subsampling_matches_gaussian_rdp(self):
        # q = 1: RDP of the plain Gaussian mechanism is alpha / (2 sigma^2).
        for alpha in (2.0, 4.0, 16.0, 64.0):
            for sigma in (0.5, 1.0, 2.5):
                rdp = compute_rdp_sampled_gaussian(1.0, sigma, 1, [alpha])
                assert rdp[0] == pytest.approx(alpha / (2 * sigma**2), rel=1e-9)

    def test_zero_sampling_is_free(self):
        rdp = compute_rdp_sampled_gaussian(0.0, 1.0, 100, [2.0, 8.0])
        assert np.all(rdp == 0.0)

    def test_zero_noise_is_infinite(self):
        rdp = compute_rdp_sampled_gaussian(0.5, 0.0, 1, [2.0])
        assert math.isinf(rdp[0])

    def test_linear_composition(self):
        one = compute_rdp_sampled_gaussian(0.1, 1.5, 1, [8.0])
        ten = compute_rdp_sampled_gaussian(0.1, 1.5, 10, [8.0])
        assert ten[0] == pytest.approx(10 * one[0], rel=1e-12)

    def test_integer_and_fractional_orders_agree_nearby(self):
        # The two series must agree in the limit: alpha = 8 vs 8.0001.
        int_rdp = compute_rdp_sampled_gaussian(0.05, 2.0, 1, [8.0])[0]
        frac_rdp = compute_rdp_sampled_gaussian(0.05, 2.0, 1, [8.0001])[0]
        assert frac_rdp == pytest.approx(int_rdp, rel=1e-3)

    def test_subsampling_amplifies(self):
        # Subsampled RDP must be far below the unsampled Gaussian RDP.
        sampled = compute_rdp_sampled_gaussian(0.01, 1.0, 1, [8.0])[0]
        unsampled = compute_rdp_sampled_gaussian(1.0, 1.0, 1, [8.0])[0]
        assert sampled < unsampled / 10


class TestRdpMonotonicity:
    @given(q=st.floats(0.001, 0.5), sigma=st.floats(0.5, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_rdp_increases_with_order(self, q, sigma):
        rdp = compute_rdp_sampled_gaussian(q, sigma, 1, [2.0, 8.0, 32.0])
        assert rdp[0] <= rdp[1] <= rdp[2]

    @given(sigma=st.floats(0.5, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_rdp_increases_with_q(self, sigma):
        low = compute_rdp_sampled_gaussian(0.01, sigma, 1, [8.0])[0]
        high = compute_rdp_sampled_gaussian(0.2, sigma, 1, [8.0])[0]
        assert low < high

    @given(q=st.floats(0.001, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_rdp_decreases_with_sigma(self, q):
        noisy = compute_rdp_sampled_gaussian(q, 4.0, 1, [8.0])[0]
        sharp = compute_rdp_sampled_gaussian(q, 1.0, 1, [8.0])[0]
        assert noisy < sharp


class TestEpsilonConversion:
    def test_improved_at_most_classic(self):
        rdp = compute_rdp_sampled_gaussian(0.06, 2.5, 200, DEFAULT_RDP_ORDERS)
        improved, _ = rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, 2e-4, "improved")
        classic, _ = rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, 2e-4, "classic")
        assert improved <= classic

    def test_epsilon_decreases_with_delta(self):
        rdp = compute_rdp_sampled_gaussian(0.06, 2.5, 100, DEFAULT_RDP_ORDERS)
        strict, _ = rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, 1e-8)
        loose, _ = rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, 1e-2)
        assert loose < strict

    def test_epsilon_nonnegative(self):
        rdp = compute_rdp_sampled_gaussian(0.001, 10.0, 1, DEFAULT_RDP_ORDERS)
        epsilon, _ = rdp_to_epsilon(DEFAULT_RDP_ORDERS, rdp, 1e-5)
        assert epsilon >= 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            rdp_to_epsilon([2.0, 3.0], [0.1], 1e-5)

    def test_unknown_conversion_rejected(self):
        with pytest.raises(ConfigError):
            rdp_to_epsilon([2.0], [0.1], 1e-5, conversion="magic")


class TestComputeEpsilon:
    def test_known_regime_magnitude(self):
        # Canonical MNIST DP-SGD setting: the accountant must land in the
        # low single digits (TF-Privacy reports ~3.0 classic / ~2.6 improved).
        q = 256 / 60_000
        steps = int(60 / q)
        epsilon = compute_epsilon(q, 1.1, steps, 1e-5)
        assert 2.0 < epsilon < 3.5

    def test_epsilon_grows_with_steps(self):
        eps_100 = compute_epsilon(0.06, 2.5, 100, 2e-4)
        eps_400 = compute_epsilon(0.06, 2.5, 400, 2e-4)
        assert eps_100 < eps_400

    def test_single_step_bounded_by_classic_gaussian(self):
        # One unsampled step at sigma large enough for the classic theorem:
        # the accountant must not be (much) worse than sqrt(2 ln(1.25/d))/sigma.
        sigma, delta = 8.0, 1e-5
        classic = math.sqrt(2 * math.log(1.25 / delta)) / sigma
        accountant = compute_epsilon(1.0, sigma, 1, delta)
        assert accountant <= classic * 1.05

    def test_invalid_q_rejected(self):
        with pytest.raises(ConfigError):
            compute_epsilon(1.5, 1.0, 1, 1e-5)

    def test_orders_below_one_rejected(self):
        with pytest.raises(ConfigError):
            compute_rdp_sampled_gaussian(0.1, 1.0, 1, [0.5, 2.0])


class TestFractionalSeriesBlocks:
    """The block-computed series adds the same terms as the scalar loop."""

    # Short series, series that stop inside the first block, and (small
    # sigma, orders near 1) series of tens of thousands of terms that run
    # through several blocks of every size.
    @pytest.mark.parametrize(
        "q,sigma",
        [(0.01, 1.1), (0.004, 4.0), (0.05, 8.0), (0.1, 0.7), (0.3, 0.5), (0.9, 2.0)],
    )
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.5, 7.7, 20.5, 100.5])
    def test_bitwise_equal_to_scalar_loop(self, q, sigma, alpha):
        planned = _compute_log_a_frac(q, sigma, alpha)
        oracle = scalar_log_a_frac(q, sigma, alpha)
        assert math.isfinite(oracle)
        assert planned.hex() == float(oracle).hex()

    # Tiny q: both terms fall below the cutoff right at i = floor(alpha),
    # so these pin the exact term the series stops after.
    @pytest.mark.parametrize(
        "q,sigma,alpha",
        [(1e-4, 1.0, 10.5), (1e-4, 2.0, 5.5), (1e-5, 0.8, 5.5), (1e-8, 0.5, 5.5)],
    )
    def test_stops_after_the_same_term(self, q, sigma, alpha):
        planned = _compute_log_a_frac(q, sigma, alpha)
        assert planned.hex() == float(scalar_log_a_frac(q, sigma, alpha)).hex()

    @given(
        q=st.floats(1e-4, 0.95),
        sigma=st.floats(0.6, 20.0),
        alpha=st.floats(1.01, 60.0).filter(lambda a: not a.is_integer()),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_parameters_match_scalar_loop(self, q, sigma, alpha):
        planned = _compute_log_a_frac(q, sigma, alpha)
        oracle = scalar_log_a_frac(q, sigma, alpha)
        assert np.float64(planned).tobytes() == np.float64(oracle).tobytes()
