"""Tests for the benchmark harness utilities (benchmarks/conftest.py)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import (  # noqa: E402
    BENCH_BASE,
    SCALES,
    bench_scale,
    write_table,
)


class TestScales:
    def test_all_profiles_present(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_smoke_is_small(self):
        smoke = SCALES["smoke"]
        default = SCALES["default"]
        assert smoke.num_users < default.num_users
        assert smoke.private_max_steps is not None
        assert default.private_max_steps is None

    def test_paper_scale_uses_more_seeds(self):
        assert len(SCALES["paper"].seeds) >= len(SCALES["default"].seeds)

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert bench_scale().name == "smoke"

    def test_default_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale().name == "default"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            bench_scale()


class TestBenchBase:
    def test_validated_configuration(self):
        # The base config must construct a valid PLPConfig.
        from repro.core.config import PLPConfig

        config = PLPConfig(**BENCH_BASE)
        assert config.grouping_factor == 4
        assert config.epsilon == 2.0


class TestWriteTable:
    def test_writes_file_and_formats(self, tmp_path, monkeypatch):
        import benchmarks.conftest as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = write_table(
            "unit_test_table",
            "A title",
            ["name", "value"],
            [["alpha", 0.12345], ["beta", 2]],
        )
        saved = (tmp_path / "unit_test_table.txt").read_text(encoding="utf-8")
        assert saved == text
        assert "A title" in text
        assert "0.1235" in text  # floats rendered at 4 decimals
        assert "alpha" in text

    def test_empty_rows(self, tmp_path, monkeypatch):
        import benchmarks.conftest as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = write_table("empty_table", "Empty", ["a", "b"], [])
        assert "Empty" in text
