"""The fleet-scale sweep orchestrator (`repro.experiments.sweep`).

Covers the declarative spec (parsing, validation, subsets,
content-addressed identity), expansion, the resumable work queue
(serial and process-pool), mid-sweep kill + resume bit-identity
(fault-injected worker death and the deterministic ``halt_after``
kill), failed-run handling, aggregation schema, and the
``repro_sweep_*`` metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.core.engine.blas import available_cores, blas_threads
from repro.exceptions import ConfigError
from repro.experiments import (
    GridSpec,
    WorkloadSpec,
    expand_spec,
    figure_spec,
    figure_specs,
    run_sweep,
    validate_aggregate,
)
from repro.experiments import sweep as sweep_module
from repro.experiments.runner import RunOutcome
from repro.observability import with_observability

SPEC_PAYLOAD = {
    "name": "unit",
    "axes": {"epsilon": [1.0, 5.0], "grouping_factor": [1, 4]},
    "base": {
        "embedding_dim": 6,
        "num_negatives": 3,
        "sampling_probability": 0.25,
        "noise_multiplier": 2.0,
        "max_steps": 1,
    },
    "methods": ["plp"],
    "seeds": 2,
    "seed": 7,
    "workload": {
        "synthetic": {
            "num_users": 50,
            "num_locations": 30,
            "num_clusters": 4,
            "mean_checkins_per_user": 15.0,
        },
        "holdout_users": 8,
    },
    "subsets": {"quick": {"axes": {"epsilon": [1.0]}, "seeds": 1}},
}


@pytest.fixture(scope="module")
def spec() -> GridSpec:
    return GridSpec.from_dict(SPEC_PAYLOAD)


@pytest.fixture(scope="module")
def serial_sweep(spec, tmp_path_factory):
    """One uninterrupted serial sweep; the bit-identity reference."""
    out = tmp_path_factory.mktemp("sweep") / "serial"
    report = run_sweep(spec, out, workers=1)
    return report, out


class TestSpecParsing:
    def test_round_trip(self, spec):
        assert GridSpec.from_dict(spec.as_dict()).as_dict() == spec.as_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep spec keys"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "tubro": True})

    def test_unknown_workload_keys_rejected(self):
        payload = json.loads(json.dumps(SPEC_PAYLOAD))
        payload["workload"]["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown workload keys"):
            GridSpec.from_dict(payload)

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError, match="axes"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "axes": {}})

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ConfigError, match="warp_drive"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "axes": {"warp_drive": [1]}})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigError, match="duplicate values"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "axes": {"epsilon": [1.0, 1.0]}})

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "methods": ["magic"]})

    def test_unknown_base_field_rejected(self):
        with pytest.raises(ConfigError, match="base fields"):
            GridSpec.from_dict({**SPEC_PAYLOAD, "base": {"warp_drive": 9}})

    def test_workload_data_and_synthetic_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            WorkloadSpec(data="corpus.csv", synthetic={"num_users": 10})

    def test_from_file(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_PAYLOAD))
        assert GridSpec.from_file(path).spec_hash() == spec.spec_hash()

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            GridSpec.from_file(path)

    def test_spec_hash_changes_with_content(self, spec):
        other = GridSpec.from_dict({**SPEC_PAYLOAD, "seeds": 3})
        assert other.spec_hash() != spec.spec_hash()


class TestSubsets:
    def test_subset_restricts_axes_and_seeds(self, spec):
        quick = spec.subset("quick")
        assert quick.name == "unit:quick"
        assert len(expand_spec(quick)) == 2  # 1 epsilon x 2 lambda x 1 seed
        assert quick.seeds == 1

    def test_subset_runs_keep_parent_identity(self, spec):
        parent_ids = {run.run_id for run in expand_spec(spec)}
        subset_ids = {run.run_id for run in expand_spec(spec.subset("quick"))}
        assert subset_ids < parent_ids

    def test_unknown_subset_rejected(self, spec):
        with pytest.raises(ConfigError, match="unknown subset"):
            spec.subset("nope")

    def test_subset_value_outside_parent_rejected(self):
        payload = json.loads(json.dumps(SPEC_PAYLOAD))
        payload["subsets"] = {"bad": {"axes": {"epsilon": [99.0]}}}
        with pytest.raises(ConfigError, match="not in the parent"):
            GridSpec.from_dict(payload).subset("bad")


class TestExpansion:
    def test_counts_and_order(self, spec):
        runs = expand_spec(spec)
        assert len(runs) == 8  # 2 x 2 grid x 1 method x 2 seeds
        assert [run.index for run in runs] == list(range(8))
        # First axis is slowest-varying.
        assert [run.overrides["epsilon"] for run in runs] == [1.0] * 4 + [5.0] * 4

    def test_run_ids_unique_and_stable(self, spec):
        first = [run.run_id for run in expand_spec(spec)]
        second = [run.run_id for run in expand_spec(spec)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_identity_is_position_independent(self, spec):
        reordered = GridSpec.from_dict({
            **SPEC_PAYLOAD,
            "axes": {"grouping_factor": [4, 1], "epsilon": [5.0, 1.0]},
        })
        assert reordered.spec_hash() != spec.spec_hash()
        assert {run.run_id for run in expand_spec(reordered)} == {
            run.run_id for run in expand_spec(spec)
        }

    def test_invalid_grid_point_fails_fast(self):
        bad = GridSpec.from_dict({**SPEC_PAYLOAD, "axes": {"epsilon": [1.0, -1.0]}})
        with pytest.raises(ConfigError, match="epsilon"):
            expand_spec(bad)


class TestSerialSweep:
    def test_accounting(self, serial_sweep):
        report, _ = serial_sweep
        assert report.total == 8
        assert report.executed == 8
        assert report.skipped == 0
        assert report.failed == 0
        assert not report.halted

    def test_outputs_on_disk(self, serial_sweep, spec):
        report, out = serial_sweep
        manifest = json.loads((out / "sweep.json").read_text())
        assert manifest["spec_hash"] == spec.spec_hash()
        assert len(manifest["runs"]) == 8
        assert len(list((out / "runs").glob("*.json"))) == 8
        aggregate = json.loads((out / "aggregate.json").read_text())
        validate_aggregate(aggregate)
        assert aggregate["counts"] == {"total": 8, "ok": 8, "failed": 0}
        for axis in ("epsilon", "grouping_factor"):
            csv_text = (out / "figures" / f"{axis}.csv").read_text()
            assert csv_text.count("\n") == 9  # header + 8 rows

    def test_table_matches_manifest_order(self, serial_sweep):
        report, out = serial_sweep
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert report.table is not None
        assert len(report.table.outcomes) == 8
        for entry, outcome in zip(aggregate["runs"], report.table.outcomes):
            assert entry["hit_rate"] == {
                str(k): v for k, v in outcome.hit_rate.items()
            }

    def test_resume_skips_everything(self, serial_sweep, spec):
        _, out = serial_sweep
        resumed = run_sweep(spec, out, workers=1, resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == 8
        assert resumed.aggregate_path is not None

    def test_rerun_without_resume_rejected(self, serial_sweep, spec):
        _, out = serial_sweep
        with pytest.raises(ConfigError, match="resume"):
            run_sweep(spec, out, workers=1)

    def test_different_spec_in_same_dir_rejected(self, serial_sweep):
        _, out = serial_sweep
        other = GridSpec.from_dict({**SPEC_PAYLOAD, "seeds": 1})
        with pytest.raises(ConfigError, match="different sweep"):
            run_sweep(other, out, workers=1, resume=True)

    def test_corrupt_outcome_file_is_rerun(self, serial_sweep, spec, tmp_path):
        _, reference = serial_sweep
        out = tmp_path / "corrupt"
        run_sweep(spec, out, workers=1)
        victim = sorted((out / "runs").glob("*.json"))[0]
        victim.write_text("{not json")
        resumed = run_sweep(spec, out, workers=1, resume=True)
        assert resumed.executed == 1
        assert resumed.skipped == 7
        assert (out / "aggregate.json").read_bytes() == (
            reference / "aggregate.json"
        ).read_bytes()


class TestParallelSweep:
    def test_parallel_bit_identical_to_serial(self, serial_sweep, spec, tmp_path):
        _, reference = serial_sweep
        out = tmp_path / "par"
        report = run_sweep(spec, out, workers=2)
        assert report.executed == 8
        assert (out / "aggregate.json").read_bytes() == (
            reference / "aggregate.json"
        ).read_bytes()

    def test_worker_kill_then_resume_bit_identical(
        self, serial_sweep, spec, tmp_path
    ):
        """A worker dies mid-sweep; the pool rebuild + manifest-driven
        resume must converge on the uninterrupted aggregate bit for bit."""
        _, reference = serial_sweep
        out = tmp_path / "fault"
        marker = tmp_path / "fault-marker"
        marker.write_text("die")
        report = run_sweep(spec, out, workers=2, fault_marker=str(marker))
        assert report.pool_rebuilds >= 1
        assert not marker.exists()  # claimed by the dying worker
        assert report.total == 8
        assert not report.halted
        assert (out / "aggregate.json").read_bytes() == (
            reference / "aggregate.json"
        ).read_bytes()
        # The resume path over the post-crash state is also a no-op.
        resumed = run_sweep(spec, out, workers=2, resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == 8

    def test_halt_and_resume_accounting(self, serial_sweep, spec, tmp_path):
        _, reference = serial_sweep
        out = tmp_path / "halt"
        halted = run_sweep(spec, out, workers=1, halt_after=3)
        assert halted.halted
        assert halted.executed == 3
        assert halted.aggregate_path is None
        resumed = run_sweep(spec, out, workers=1, resume=True)
        assert not resumed.halted
        assert resumed.skipped == 3
        assert resumed.executed == 5
        assert resumed.skipped + resumed.executed == resumed.total
        assert (out / "aggregate.json").read_bytes() == (
            reference / "aggregate.json"
        ).read_bytes()


@pytest.mark.skipif(
    blas_threads() is None,
    reason="no OpenBLAS thread-control symbol found in this process",
)
class TestSweepWorkerBlasCap:
    """Sweep workers run at most their share of the cores in BLAS threads."""

    def test_workers_cap_blas_threads_to_core_share(self, spec):
        parent = blas_threads()
        share = max(1, available_cores() // 2)
        with ProcessPoolExecutor(
            max_workers=2,
            initializer=sweep_module._init_sweep_worker,
            initargs=(spec.as_dict(), None, 2),
        ) as pool:
            counts = [pool.submit(blas_threads).result() for _ in range(4)]
        assert all(count <= min(share, parent) for count in counts), counts
        assert blas_threads() == parent

    @pytest.mark.skipif(
        available_cores() < 2, reason="one core: every share is the default width"
    )
    def test_worker_caps_blas_loaded_by_its_first_run(self, spec):
        # A fresh coordinator that has not loaded SciPy, and no thread-count
        # variables, so a library loaded after the cap would start one
        # thread per core; the worker's share is one thread.
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _PROBE_AFTER_RUN, json.dumps(spec.as_dict())],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout.splitlines()[-1])
        assert not probe["coordinator_scipy"]
        assert probe["worker_scipy"]
        assert probe["worker_threads"] == 1, probe


_PROBE_AFTER_RUN = """
import json, sys
from concurrent.futures import ProcessPoolExecutor
from repro.core.engine.blas import available_cores, blas_threads
from repro.experiments import GridSpec, expand_spec
from repro.experiments import sweep

def probe():
    return blas_threads(), "scipy.special" in sys.modules

payload = json.loads(sys.argv[1])
run = expand_spec(GridSpec.from_dict(payload))[0]
with ProcessPoolExecutor(
    max_workers=1,
    initializer=sweep._init_sweep_worker,
    initargs=(payload, None, available_cores()),
) as pool:
    pool.submit(
        sweep._sweep_job, run.run_id, run.index, dict(run.overrides),
        run.method, run.seed_index,
    ).result()
    threads, loaded = pool.submit(probe).result()
print(json.dumps({
    "coordinator_scipy": "scipy" in sys.modules,
    "worker_scipy": loaded,
    "worker_threads": threads,
}))
"""


class TestFailedRuns:
    def test_failed_run_recorded_not_fatal(self, spec, tmp_path, monkeypatch):
        real_run_one = sweep_module.ExperimentRunner.run_one

        def flaky(self, overrides=None, method="plp", seed_offset=0, rng=None):
            outcome = real_run_one(
                self, overrides=overrides, method=method,
                seed_offset=seed_offset, rng=rng,
            )
            if overrides and overrides.get("grouping_factor") == 4:
                return RunOutcome(
                    parameters=dict(overrides), method=method, hit_rate={},
                    steps=0, epsilon_spent=0.0,
                    train_seconds=outcome.train_seconds,
                    error="Traceback: induced failure",
                )
            return outcome

        monkeypatch.setattr(sweep_module.ExperimentRunner, "run_one", flaky)
        report = run_sweep(spec, tmp_path / "failing", workers=1)
        assert report.failed == 4
        assert report.executed == 8
        aggregate = json.loads((tmp_path / "failing/aggregate.json").read_text())
        validate_aggregate(aggregate)
        assert aggregate["counts"] == {"total": 8, "ok": 4, "failed": 4}
        failed_rows = [run for run in aggregate["runs"] if run["error"]]
        assert len(failed_rows) == 4
        assert all("induced failure" in run["error"] for run in failed_rows)
        assert report.table is not None
        assert report.table.best().parameters["grouping_factor"] == 1


class TestObservability:
    def test_metrics_and_spans(self, spec, tmp_path):
        obs = with_observability()
        run_sweep(spec, tmp_path / "obs", workers=1, observability=obs)
        rendered = obs.metrics.render_prometheus()
        assert "repro_sweep_runs_total 8" in rendered
        assert "repro_sweep_executed_total 8" in rendered
        assert "repro_sweep_skipped_total 0" in rendered
        names = [span.name for span in obs.tracer.finished_spans]
        assert names.count("sweep.run") == 8
        assert "sweep" in names


class TestInvalidLaunch:
    def test_bad_workers(self, spec, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(spec, tmp_path / "x", workers=0)

    def test_bad_halt_after(self, spec, tmp_path):
        with pytest.raises(ConfigError, match="halt_after"):
            run_sweep(spec, tmp_path / "x", halt_after=0)


class TestValidateAggregate:
    @pytest.fixture()
    def aggregate(self, serial_sweep):
        _, out = serial_sweep
        return json.loads((out / "aggregate.json").read_text())

    def test_accepts_real_aggregate(self, aggregate):
        validate_aggregate(aggregate)

    def test_rejects_count_mismatch(self, aggregate):
        broken = json.loads(json.dumps(aggregate))
        broken["counts"]["ok"] = 99
        with pytest.raises(ConfigError, match="counts.ok"):
            validate_aggregate(broken)

    def test_rejects_wall_clock_leakage(self, aggregate):
        broken = json.loads(json.dumps(aggregate))
        broken["runs"][0]["train_seconds"] = 1.0
        with pytest.raises(ConfigError, match="wall-clock"):
            validate_aggregate(broken)

    def test_rejects_out_of_order_runs(self, aggregate):
        broken = json.loads(json.dumps(aggregate))
        broken["runs"].reverse()
        with pytest.raises(ConfigError, match="out of order"):
            validate_aggregate(broken)


class TestFigures:
    def test_every_paper_figure_has_a_spec(self):
        specs = figure_specs("smoke")
        assert len(specs) == 6
        for grid in specs:
            assert len(grid.axes) == 1
            assert grid.name.endswith("-smoke")
            expand_spec(grid)  # must be a valid, expandable grid

    def test_swept_field_not_pinned_by_base(self):
        grid = figure_spec("fig13_negatives", "smoke")
        assert "num_negatives" not in grid.base

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError, match="unknown figure"):
            figure_spec("fig99_flux", "smoke")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError, match="scale"):
            figure_spec("fig7_epsilon", "galactic")
