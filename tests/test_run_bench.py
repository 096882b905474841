"""The end-to-end benchmark runner (``repro.bench`` via its shim)."""

import json

import pytest

from benchmarks.run_bench import (
    STAGE_NAMES,
    compare_to_baseline,
    main,
    validate_report,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One real ``--quick`` run, shared by every test in the module."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_plp.json"
    assert main(["--quick", "--out", str(out), "--seed", "3",
                 "--baseline", "none"]) == 0
    return json.loads(out.read_text())


class TestQuickRun:
    def test_report_is_schema_valid(self, report):
        validate_report(report)  # raises on mismatch

    def test_training_section(self, report):
        training = report["training"]
        assert training["steps"] > 0
        assert training["buckets_total"] > 0
        assert training["buckets_per_second"] > 0
        assert set(training["stage_seconds"]) == set(STAGE_NAMES)
        # Every stage ran once per step.
        for aggregate in training["stage_seconds"].values():
            assert aggregate["count"] == training["steps"]

    def test_kernel_section(self, report):
        kernels = report["kernels"]
        timings = kernels["local_train_seconds"]
        assert set(timings) == {"reference", "fast"}
        assert all(seconds > 0 for seconds in timings.values())
        speedup = kernels["speedup_vs_reference"]["fast"]
        assert speedup == pytest.approx(
            timings["reference"] / timings["fast"]
        )

    def test_backend_recorded(self, report):
        assert report["backend"] == "reference"

    def test_latency_sections(self, report):
        assert report["recommend"]["queries"] > 0
        assert 0 <= report["recommend"]["p50_seconds"] <= report["recommend"]["p95_seconds"]
        evaluation = report["evaluation"]
        assert evaluation["cases"] > 0
        assert evaluation["query_seconds_p50"] <= evaluation["query_seconds_p95"]
        assert evaluation["hit_rate"]

    def test_sweep_section(self, report):
        sweep = report["sweep"]
        assert sweep["runs"] >= 8
        assert sweep["workers"] >= 2
        assert sweep["executed"] == sweep["runs"]
        assert sweep["failed"] == 0
        assert sweep["runs_per_second"] > 0
        # The resume pass must skip every completed run and cost a small
        # fraction of the fresh sweep.
        assert sweep["resume_skipped"] == sweep["runs"]
        assert sweep["resume_executed"] == 0
        assert 0 <= sweep["resume_overhead_ratio"] < 0.5

    def test_sharded_scales_with_cores(self, report):
        # The report records scaling or its absence; this is the floor.
        # Near-linear scaling can only be demanded of more than one
        # worker, and only for worker counts the host has cores for (one
        # worker is held to the validator's 0.5x overhead floor).
        sharded = report["sharded"]
        cores = sharded["available_cores"]
        if cores < 2:
            pytest.skip(f"needs 2 cores to scale onto, host has {cores}")
        for count, entry in sharded["workers"].items():
            if 1 < int(count) <= cores:
                assert entry["speedup_vs_serial"] >= 0.6 * int(count), (
                    f"{count} workers on {cores} cores: "
                    f"{entry['speedup_vs_serial']:.2f}x vs serial"
                )


class TestValidateReport:
    def test_rejects_missing_section(self, report):
        broken = dict(report)
        del broken["training"]
        with pytest.raises(ValueError, match="training"):
            validate_report(broken)

    def test_rejects_incomplete_stages(self, report):
        broken = json.loads(json.dumps(report))
        del broken["training"]["stage_seconds"]["noise"]
        with pytest.raises(ValueError, match="stage_seconds"):
            validate_report(broken)

    def test_rejects_wrong_schema_version(self, report):
        broken = dict(report)
        broken["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_report(broken)

    def test_rejects_missing_kernels(self, report):
        broken = json.loads(json.dumps(report))
        del broken["kernels"]["speedup_vs_reference"]
        with pytest.raises(ValueError, match="speedup_vs_reference"):
            validate_report(broken)

    def test_rejects_missing_sweep_section(self, report):
        broken = dict(report)
        del broken["sweep"]
        with pytest.raises(ValueError, match="sweep"):
            validate_report(broken)

    def test_rejects_incomplete_sweep_resume(self, report):
        broken = json.loads(json.dumps(report))
        broken["sweep"]["resume_skipped"] = broken["sweep"]["runs"] - 1
        with pytest.raises(ValueError, match="resume_skipped"):
            validate_report(broken)

    def test_rejects_failed_sweep_runs(self, report):
        broken = json.loads(json.dumps(report))
        broken["sweep"]["failed"] = 1
        with pytest.raises(ValueError, match="failed"):
            validate_report(broken)


class TestCommittedBaseline:
    """The repo-root ``BENCH_plp.json`` is a real, current report."""

    @pytest.fixture(scope="class")
    def baseline(self):
        from repro.bench import _default_baseline

        path = _default_baseline()
        assert path is not None, "committed BENCH_plp.json missing"
        return json.loads(path.read_text())

    def test_baseline_is_schema_valid(self, baseline):
        validate_report(baseline)

    def test_baseline_shows_fast_kernel_speedup(self, baseline):
        # The committed report must make the fused fast path's win
        # visible; the live measurement gate is the bench-marked
        # tests/nn/test_backend_speedup.py.
        assert baseline["kernels"]["speedup_vs_reference"]["fast"] >= 2.5


class TestCompareToBaseline:
    def test_identical_reports_pass(self, report):
        assert compare_to_baseline(report, report) == []

    def test_small_drift_within_threshold_passes(self, report):
        baseline = json.loads(json.dumps(report))
        baseline["training"]["buckets_per_second"] *= 1.10
        baseline["recommend"]["p95_seconds"] *= 0.90
        assert compare_to_baseline(report, baseline) == []

    def test_throughput_regression_fails(self, report):
        baseline = json.loads(json.dumps(report))
        baseline["training"]["buckets_per_second"] = (
            report["training"]["buckets_per_second"] * 2.0
        )
        messages = compare_to_baseline(report, baseline)
        assert len(messages) == 1
        assert "buckets/sec" in messages[0]

    def test_recommend_p95_regression_fails(self, report):
        baseline = json.loads(json.dumps(report))
        baseline["recommend"]["p95_seconds"] = 0.010
        fresh = json.loads(json.dumps(report))
        fresh["recommend"]["p95_seconds"] = 0.020
        messages = compare_to_baseline(fresh, baseline)
        assert len(messages) == 1
        assert "p95" in messages[0]

    def test_microsecond_p95_jitter_is_not_a_regression(self, report):
        # At the quick scale p95 is tens of microseconds; a 2x blip there
        # is scheduler noise, not a regression (absolute slack applies).
        baseline = json.loads(json.dumps(report))
        baseline["recommend"]["p95_seconds"] = 0.0001
        fresh = json.loads(json.dumps(report))
        fresh["recommend"]["p95_seconds"] = 0.0002
        assert compare_to_baseline(fresh, baseline) == []

    def test_mismatched_mode_is_not_comparable(self, report):
        baseline = json.loads(json.dumps(report))
        baseline["quick"] = not report["quick"]
        with pytest.raises(ValueError, match="not comparable"):
            compare_to_baseline(report, baseline)

    def test_mismatched_backend_is_not_comparable(self, report):
        baseline = json.loads(json.dumps(report))
        baseline["backend"] = "fast"
        with pytest.raises(ValueError, match="backend"):
            compare_to_baseline(report, baseline)

    def test_regression_exits_3(self, report, tmp_path, monkeypatch):
        import repro.bench as bench_module

        # Reuse the fixture's report instead of re-running the pipeline.
        monkeypatch.setattr(
            bench_module,
            "run_benchmark",
            lambda **kwargs: json.loads(json.dumps(report)),
        )
        baseline = json.loads(json.dumps(report))
        baseline["training"]["buckets_per_second"] *= 1e6
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        out = tmp_path / "BENCH_plp.json"
        assert main(["--quick", "--out", str(out), "--seed", "3",
                     "--baseline", str(baseline_path)]) == 3
