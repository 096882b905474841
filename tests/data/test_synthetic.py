"""Tests for the synthetic Foursquare-like generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.checkins import CheckinDataset
from repro.data.synthetic import TOKYO_BBOX, SyntheticConfig, generate_checkins
from repro.exceptions import ConfigError


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_users=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_locations=1)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_clusters=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_clusters=1000, num_locations=100)
        with pytest.raises(ConfigError):
            SyntheticConfig(preferred_cluster_prob=1.5)
        with pytest.raises(ConfigError):
            SyntheticConfig(months=0.0)


class TestGenerator:
    @pytest.fixture(scope="class")
    def checkins(self):
        config = SyntheticConfig(num_users=60, num_locations=50, num_clusters=5)
        return generate_checkins(config, rng=42)

    def test_deterministic(self):
        config = SyntheticConfig(num_users=10, num_locations=20, num_clusters=3)
        a = generate_checkins(config, rng=1)
        b = generate_checkins(config, rng=1)
        assert a == b

    def test_different_seeds_differ(self):
        config = SyntheticConfig(num_users=10, num_locations=20, num_clusters=3)
        a = generate_checkins(config, rng=1)
        b = generate_checkins(config, rng=2)
        assert a != b

    def test_all_users_present(self, checkins):
        assert {c.user for c in checkins} == set(range(60))

    def test_min_checkins_respected(self, checkins):
        dataset = CheckinDataset(checkins)
        for history in dataset:
            assert len(history) >= SyntheticConfig().min_checkins_per_user

    def test_coordinates_inside_bbox(self, checkins):
        lat_s, lat_n, lon_w, lon_e = TOKYO_BBOX
        for checkin in checkins[:500]:
            assert lat_s <= checkin.latitude <= lat_n
            assert lon_w <= checkin.longitude <= lon_e

    def test_location_ids_in_range(self, checkins):
        assert all(0 <= c.location < 50 for c in checkins)

    def test_timestamps_sorted_per_user(self, checkins):
        dataset = CheckinDataset(checkins)
        for history in dataset:
            timestamps = history.timestamps()
            assert timestamps == sorted(timestamps)

    def test_popularity_is_skewed(self, checkins):
        # Zipf popularity: the busiest location far exceeds the uniform
        # share, and the top fifth of locations dominates the volume.
        counts = np.bincount([c.location for c in checkins], minlength=50)
        assert counts.max() > 2 * counts.mean()
        top_fifth = np.sort(counts)[-10:].sum()
        assert top_fifth > 0.35 * counts.sum()

    def test_within_session_repeats_rare(self, checkins):
        # Consecutive same-location check-ins should be rare (real
        # check-in sessions do not revisit a venue within hours).
        dataset = CheckinDataset(checkins)
        repeats = total = 0
        for history in dataset:
            locations = history.locations()
            for a, b in zip(locations, locations[1:]):
                repeats += a == b
                total += 1
        assert repeats / total < 0.05


class TestScaling:
    def test_heavy_tail_of_user_activity(self):
        config = SyntheticConfig(
            num_users=300, num_locations=100, num_clusters=8, checkins_sigma=1.0
        )
        dataset = CheckinDataset(generate_checkins(config, rng=3))
        counts = sorted(len(history) for history in dataset)
        # Long tail: top user far above the median.
        assert counts[-1] > 4 * counts[len(counts) // 2]
