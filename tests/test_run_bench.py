"""The end-to-end benchmark, ``repro bench`` (:mod:`repro.bench`)."""

import json

import pytest

from repro.bench import STAGE_NAMES, compare_to_baseline, validate_report
from repro.cli import main


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One real ``--quick`` run, shared by every test in the module."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_plp.json"
    assert main(["bench", "--quick", "--out", str(out), "--seed", "3",
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


class TestStageSeconds:
    def test_budget_preview_is_billed_to_account(self, split_dataset, monkeypatch):
        """The bench's stage breakdown is the engine's stage histogram, so
        a slow ledger preview shows up under ``account``, not ``apply``."""
        import time

        import repro
        from repro.bench import _stage_seconds
        from repro.core.engine.stages import StepPipeline

        delay = 0.05
        preview = StepPipeline.budget_would_cross

        def slow_preview(self, sigma):
            time.sleep(delay)
            return preview(self, sigma)

        monkeypatch.setattr(StepPipeline, "budget_would_cross", slow_preview)
        train, _ = split_dataset
        obs = repro.with_observability()
        config = repro.PLPConfig(
            embedding_dim=8, num_negatives=4, sampling_probability=0.2,
            epsilon=50.0, grouping_factor=3, max_steps=3,
        )
        model = repro.train(config, train, rng=11, with_observability=obs)
        steps = len(model.history)
        stages = _stage_seconds(obs.metrics)
        assert set(stages) == set(STAGE_NAMES)
        assert stages["account"]["total_seconds"] >= delay * steps
        assert stages["apply"]["total_seconds"] < delay
        for aggregate in stages.values():
            assert aggregate["count"] == steps


_DELETE = object()

#: One case per row of the validator's rule table: ``(name, dotted path,
#: value, expected line)``. Each case sets one field of the fixture report
#: to ``value`` (or deletes it) and expects a problem line that starts
#: with ``expected``: the row's resolved path and its requirement.
_BROKEN_FIELDS = [
    ("schema_version_type", "schema_version", "5", "schema_version: expected int"),
    ("wrong_schema_version", "schema_version", 999, "schema_version: expected 5"),
    ("quick_type", "quick", 1, "quick: expected bool"),
    ("seed_type", "seed", "3", "seed: expected int"),
    ("backend_type", "backend", None, "backend: expected str"),
    ("generated_unix_type", "generated_unix", 1, "generated_unix: expected float"),
    ("workload_type", "workload", [], "workload: expected dict"),
    ("missing_section", "training", _DELETE, "training: expected dict"),
    ("kernels_type", "kernels", [], "kernels: expected dict"),
    ("sharded_type", "sharded", [], "sharded: expected dict"),
    ("serving_type", "serving", [], "serving: expected dict"),
    ("missing_sweep_section", "sweep", _DELETE, "sweep: expected dict"),
    ("evaluation_type", "evaluation", [], "evaluation: expected dict"),
    ("recommend_type", "recommend", [], "recommend: expected dict"),
    ("peak_rss_missing", "peak_rss_bytes", _DELETE, "peak_rss_bytes: expected int > 0 or null"),
    ("peak_rss_zero", "peak_rss_bytes", 0, "peak_rss_bytes: expected int > 0 or null"),
    ("negative_steps", "training.steps", -1, "training.steps: expected int >= 0"),
    ("float_buckets_total", "training.buckets_total", 1.5,
     "training.buckets_total: expected int >= 0"),
    ("negative_total_seconds", "training.total_seconds", -1.0,
     "training.total_seconds: expected float >= 0"),
    ("int_buckets_per_second", "training.buckets_per_second", 5,
     "training.buckets_per_second: expected float >= 0"),
    ("incomplete_stages", "training.stage_seconds.noise", _DELETE,
     "training.stage_seconds: expected stages"),
    *(
        (f"stage_{key}_type", f"training.stage_seconds.noise.{key}", "x",
         f"training.stage_seconds.noise.{key}: expected number")
        for key in ("count", "total_seconds", "mean_seconds", "max_seconds")
    ),
    ("no_reference_timing", "kernels.local_train_seconds.reference", _DELETE,
     "kernels.local_train_seconds: expected dict with 'reference'"),
    ("zero_kernel_timing", "kernels.local_train_seconds.fast", 0.0,
     "kernels.local_train_seconds.fast: expected float > 0"),
    ("missing_kernels", "kernels.speedup_vs_reference", _DELETE,
     "kernels.speedup_vs_reference: expected dict with 'fast'"),
    ("negative_kernel_speedup", "kernels.speedup_vs_reference.fast", -1.0,
     "kernels.speedup_vs_reference.fast: expected float > 0"),
    ("zero_serial_throughput", "sharded.serial.buckets_per_second", 0.0,
     "sharded.serial.buckets_per_second: expected float > 0"),
    ("no_worker_counts", "sharded.workers", {}, "sharded.workers: expected non-empty dict"),
    *(
        (f"int_worker_{key}", f"sharded.workers.1.{key}", 1,
         f"sharded.workers.1.{key}: expected float > 0")
        for key in ("seconds", "buckets_per_second", "speedup_vs_serial")
    ),
    ("sharded_overhead_floor", "sharded.workers.1.speedup_vs_serial", 0.3,
     "sharded.workers.1.speedup_vs_serial: below the 0.5x overhead floor"),
    ("ledger_not_identical", "sharded.ledger_identical", False,
     "sharded.ledger_identical: executors must produce one ledger"),
    ("embeddings_not_identical", "sharded.embeddings_identical", False,
     "sharded.embeddings_identical: executors must produce one model"),
    *(
        (f"zero_{phase}_throughput", f"serving.{phase}.req_per_s", 0.0,
         f"serving.{phase}.req_per_s: expected float > 0")
        for phase in ("baseline", "sustained")
    ),
    ("baseline_p50_above_p95", "serving.baseline.p50_seconds", 1e9,
     "serving.baseline: expected float 0 <= p50_seconds <= p95_seconds"),
    ("sustained_negative_p50", "serving.sustained.p50_seconds", -1.0,
     "serving.sustained: expected float 0 <= p50_seconds <= p95_seconds"),
    ("sustained_drops", "serving.sustained.all_responded", False,
     "serving.sustained.all_responded: silent request drops detected"),
    ("shed_rate_above_one", "serving.sustained.shed_rate", 1.5,
     "serving.sustained.shed_rate: expected float in [0, 1]"),
    ("batching_no_faster", "serving.sustained.speedup_vs_baseline", 0.9,
     "serving.sustained.speedup_vs_baseline: expected float > 1.0"),
    ("overload_not_shed", "serving.overload.shed", 0,
     "serving.overload.shed: expected int > 0"),
    ("no_retry_after", "serving.overload.retry_after_present", False,
     "serving.overload.retry_after_present: 503 responses must carry Retry-After"),
    ("overload_drops", "serving.overload.all_responded", False,
     "serving.overload.all_responded: silent request drops detected"),
    ("recall_above_one", "serving.ann.recall", 1.5,
     "serving.ann.recall: expected float in [0, 1]"),
    ("ann_recall_below_contract", "serving.ann.recall", 0.9,
     "serving.ann.recall: expected float >= 0.95"),
    ("small_sweep_grid", "sweep.runs", 4, "sweep.runs: expected int >= 8"),
    ("serial_sweep", "sweep.workers", 1, "sweep.workers: expected int >= 2"),
    ("sweep_runs_not_executed", "sweep.executed", 0, "sweep: expected executed == runs"),
    ("failed_sweep_runs", "sweep.failed", 1, "sweep.failed: expected zero failed runs"),
    *(
        (f"zero_sweep_{key}", f"sweep.{key}", 0.0, f"sweep.{key}: expected float > 0")
        for key in ("fresh_seconds", "runs_per_second", "resume_seconds")
    ),
    ("incomplete_sweep_resume", "sweep.resume_skipped", 7,
     "sweep: expected resume_skipped == runs"),
    ("resume_executed", "sweep.resume_executed", 1,
     "sweep.resume_executed: resume must re-execute nothing"),
    ("slow_resume", "sweep.resume_overhead_ratio", 0.5,
     "sweep.resume_overhead_ratio: resume must cost <50% of a fresh run"),
    ("empty_hit_rate", "evaluation.hit_rate", {}, "evaluation.hit_rate: expected non-empty dict"),
    *(
        (f"{key}_type", f"evaluation.{key}", None, f"evaluation.{key}: expected float")
        for key in ("query_seconds_p50", "query_seconds_p95")
    ),
    ("no_recommend_queries", "recommend.queries", 0, "recommend.queries: expected int > 0"),
    ("recommend_p50_above_p95", "recommend.p50_seconds", 1e9,
     "recommend: expected float p50_seconds <= p95_seconds"),
]


def _broken(report: dict, path: str, value) -> dict:
    """A deep copy of ``report`` with the field at ``path`` replaced."""
    broken = json.loads(json.dumps(report))
    *parents, leaf = path.split(".")
    node = broken
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return broken


def _assert_rejected(report: dict, expected: str, **kwargs) -> None:
    with pytest.raises(ValueError) as excinfo:
        validate_report(report, **kwargs)
    lines = [line.strip() for line in str(excinfo.value).splitlines()]
    assert any(line.startswith(expected) for line in lines), str(excinfo.value)


class TestValidateReport:
    """Every rule of the validator's table rejects its broken field by
    name. The cases of ``_BROKEN_FIELDS`` become ``test_rejects_<name>``
    methods (below the class) rather than one ``parametrize``, so that
    each case keeps a stable test id of its own."""

    def test_sections_limit_the_rules(self, report):
        serving_only = {"schema_version": report["schema_version"],
                        "serving": report["serving"]}
        validate_report(serving_only, sections=("serving",))
        _assert_rejected(
            _broken(serving_only, "serving.ann.recall", 0.9),
            "serving.ann.recall: expected float >= 0.95",
            sections=("serving",),
        )


def _rejects(path: str, value, expected: str):
    def test(self, report):
        _assert_rejected(_broken(report, path, value), expected)

    return test


for _name, _path, _value, _expected in _BROKEN_FIELDS:
    setattr(TestValidateReport, f"test_rejects_{_name}", _rejects(_path, _value, _expected))


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
        assert main(["bench", "--quick", "--out", str(out), "--seed", "3",
                     "--baseline", str(baseline_path)]) == 3
