"""Tests of the benchmark's own machinery (not of the program it measures).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import time
import types

import numpy as np
import pytest

from perfbench.common import Tally, percentile, samples_beyond
from perfbench.serve import (
    _serving_layers,
    check_sample,
    same_top_k,
    search_ladder,
    wire_v1_rows,
)
from perfbench.spans import Span, SpanRecorder, self_time_by_name, self_times, within
from perfbench.train import _shard_sizes, independent_epsilon, layer_metrics


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(p):
    values = list(np.random.default_rng(3).exponential(size=101))
    assert percentile(values, p) == pytest.approx(np.percentile(values, p), rel=1e-12)


def test_percentile_of_small_and_unsorted_samples():
    assert percentile([3.0], 90) == 3.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_p90_reaches_ten_at_a_hundred_steps():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(50, 90) == 5


# -- ladder search ---------------------------------------------------------------


def _capacity(limit, flag_above=None, calls=None):
    def probe(rate):
        if calls is not None:
            calls.append(rate)
        if flag_above is not None and rate > flag_above:
            return "flagged"
        return "pass" if rate <= limit else "fail"

    return probe


RUNGS = list(range(1000, 20001, 1000))


@pytest.mark.parametrize("limit", [1000, 1500, 4000, 9000, 10000, 13000, 20000])
@pytest.mark.parametrize("start", [1000, 10000, 20000])
def test_ladder_search_finds_the_highest_passing_rung(limit, start):
    best, verdicts = search_ladder(RUNGS, _capacity(limit), start=start, max_probes=16)
    assert best == max(rate for rate in RUNGS if rate <= limit)
    assert verdicts[best] == "pass"


def test_ladder_search_near_the_start_rung_needs_two_probes():
    calls = []
    best, _ = search_ladder(RUNGS, _capacity(10000, calls=calls), start=10000)
    assert best == 10000 and calls == [10000, 11000]
    calls.clear()
    best, _ = search_ladder(RUNGS, _capacity(9000, calls=calls), start=10000)
    assert best == 9000 and calls == [10000, 9000]


def test_ladder_search_reuses_known_passes_and_bounds_probes():
    calls = []
    best, _ = search_ladder(
        RUNGS,
        _capacity(2000, calls=calls),
        start=10000,
        known={1000: "pass", 2000: "pass"},
        max_probes=16,
    )
    assert best == 2000
    assert 1000 not in calls and 2000 not in calls
    calls.clear()
    best, _ = search_ladder(RUNGS, _capacity(19000, calls=calls), start=1000, max_probes=3)
    assert len(calls) == 3
    assert best == 4000  # 1000, 2000, 4000 passed; the budget ended the gallop


def test_ladder_search_stops_at_a_flagged_rung_without_scoring_it():
    best, verdicts = search_ladder(
        RUNGS, _capacity(15000, flag_above=12000), start=10000, max_probes=16
    )
    assert best == 12000
    assert "flagged" in verdicts.values()
    assert all(v != "fail" for v in verdicts.values())


def test_a_transient_miss_is_probed_again_and_fails_only_if_it_repeats():
    outcomes = {10000: ["transient", "pass"], 11000: ["transient", "transient"]}
    calls = []

    def probe(rate):
        calls.append(rate)
        if rate in outcomes:
            return outcomes[rate].pop(0)
        return "pass" if rate <= 12000 else "fail"

    best, verdicts = search_ladder(RUNGS, probe, start=10000, max_probes=16)
    assert best == 10000
    assert calls == [10000, 10000, 11000, 11000]
    assert verdicts[10000] == "pass" and verdicts[11000] == "transient"


def test_ladder_search_with_no_passing_rung():
    best, verdicts = search_ladder(RUNGS, _capacity(100), start=1000, max_probes=16)
    assert best is None
    assert verdicts == {1000: "fail"}


# -- spans and self time ---------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("step", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.inner", 6.0, 7.5, 3),
        Span("b.inner", 7.5, 8.5, 3),
        Span("setup", 20.0, 21.0, None),
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.0, 1.0])
    inside = within(spans, "step")
    assert inside == {0, 1, 2, 3, 4, 5}
    by_name = self_time_by_name(spans, inside)
    assert sum(by_name.values()) == pytest.approx(spans[0].duration)
    assert by_name["b.inner"] == pytest.approx(2.5)


def test_overlapping_children_are_subtracted_as_their_union():
    spans = [
        Span("p", 0.0, 10.0, None),
        Span("c", 1.0, 4.0, 0),
        Span("c", 3.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_child_outliving_its_parent_is_clipped():
    spans = [Span("p", 0.0, 2.0, None), Span("c", 1.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_wraps_nested_calls_and_restores_them():
    class Layer:
        def outer(self, n):
            time.sleep(0.002)
            return self.inner(n) + 1

        def inner(self, n):
            time.sleep(0.003)
            return n

        @classmethod
        def build(cls, n):
            return n * 2

    module = types.SimpleNamespace(helper=lambda x: x + 1)
    original_outer, original_helper = Layer.outer, module.helper
    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner", attrs_of=lambda self, n: {"n": n})
    recorder.wrap(Layer, "build", "build")
    recorder.wrap(module, "helper", "helper")
    assert Layer().outer(4) == 5
    assert Layer.build(3) == 6
    assert module.helper(1) == 2
    recorder.unwrap_all()
    assert Layer.outer is original_outer and module.helper is original_helper
    assert isinstance(Layer.__dict__["build"], classmethod)

    names = [span.name for span in recorder.spans]
    assert names == ["outer", "inner", "build", "helper"]
    outer, inner = recorder.spans[0], recorder.spans[1]
    assert inner.parent == 0 and inner.attrs == {"n": 4}
    own = self_times(recorder.spans)
    assert own[0] + own[1] == pytest.approx(outer.duration)
    assert own[1] >= 0.003 and own[0] >= 0.002


def test_wrapping_an_inherited_method_shadows_and_unshadows():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    recorder = SpanRecorder()
    recorder.wrap(Child, "run", "run")
    assert "run" in Child.__dict__ and Child().run() == "base"
    recorder.unwrap_all()
    assert "run" not in Child.__dict__
    assert [span.name for span in recorder.spans] == ["run"]


# -- output checks ---------------------------------------------------------------


def test_top_k_comparison_tolerates_float32_rounding_only():
    offline = [[(7, 0.5), (3, 0.25)], [(1, 0.9), (2, 0.1)]]
    assert same_top_k([[(7, 0.5 + 1e-7), (3, 0.25)], [(1, 0.9), (2, 0.1)]], offline)
    assert not same_top_k([[(3, 0.25), (7, 0.5)], [(1, 0.9), (2, 0.1)]], offline)
    assert not same_top_k([[(7, 0.6), (3, 0.25)], [(1, 0.9), (2, 0.1)]], offline)
    assert not same_top_k(offline[:1], offline)


class _Offline:
    """A stand-in model answering every query with a fixed ranking."""

    def recommend_batch(self, queries, top_k=10, mode="exact"):
        assert mode == "fast"
        return [[(location, 1.0 / (location + 1)) for location in range(top_k)]] * len(
            queries
        )


def test_a_wrong_served_answer_is_counted_as_failed():
    model = _Offline()
    queries = [(1, 2), (3,)]
    right = model.recommend_batch(queries, top_k=10, mode="fast")
    tally = Tally()
    tally.operations(100)
    check_sample(tally, "matches", model, queries, right)
    assert tally.correct and tally.failed == 0

    wrong = [list(row) for row in right]
    wrong[1][0], wrong[1][1] = wrong[1][1], wrong[1][0]
    check_sample(tally, "matches_wrong", model, queries, wrong)
    assert not tally.correct
    assert tally.failed == 1 and tally.attempted == 102
    assert tally.ok_frac == pytest.approx(101 / 102)


def test_wire_v1_check_requires_version_and_row_count():
    rows = [[location, 0.5] for location in range(10)]
    assert wire_v1_rows({"v": 1, "recommendations": rows}, 10)
    assert not wire_v1_rows({"v": 1, "recommendations": rows[:9]}, 10)
    assert not wire_v1_rows({"v": 2, "recommendations": rows}, 10)
    assert not wire_v1_rows(["not", "an", "object"], 10)


# -- training accounting helpers -------------------------------------------------


def test_shard_sizes_split_contiguously_and_evenly():
    assert _shard_sizes(7, 2) == [4, 3]
    assert _shard_sizes(1, 2) == [1]
    assert _shard_sizes(5, 1) == [5]
    assert _shard_sizes(0, 2) == []


@pytest.mark.parametrize(
    "sigmas", [[2.5] * 30, [2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 2.0, 2.0]]
)
def test_independent_epsilon_matches_the_ledger(sigmas):
    from repro.privacy.accountant import PrivacyLedger

    ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.06)
    for sigma in sigmas:
        ledger.track_budget(0.5, sigma)
    reported = ledger.cumulative_budget_spent()
    assert independent_epsilon(sigmas, 0.06, 2e-4) == pytest.approx(reported, rel=1e-12)
    assert independent_epsilon(sigmas[:-1], 0.06, 2e-4) < reported


# -- the benchmark definition -----------------------------------------------------


def _definition():
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((root / "perfbench" / "spec.json").read_text())
    return benchmark, spec


def _kinds(spec):
    """The keys a per-workload definition may use: "all", "train" or a name."""
    return {"all", "train", *spec["workloads"]}


def _covers_every_workload(spec, definitions):
    names = set()
    for key in definitions:
        if key == "all":
            names |= set(spec["workloads"])
        elif key == "train":
            names |= {n for n, w in spec["workloads"].items() if w["kind"] == "train"}
        else:
            names.add(key)
    return names == set(spec["workloads"])


def test_benchmark_definition_matches_the_spec():
    benchmark, spec = _definition()
    assert [w["name"] for w in benchmark["workloads"]] == [
        name for name, workload in spec["workloads"].items()
        if not workload.get("manual_only")
    ]
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    assert end_to_end == set(spec["end_to_end"])
    assert {m["name"] for m in benchmark["per_layer"]} == set(spec["layer_map"])
    for name, definitions in spec["end_to_end"].items():
        assert set(definitions) <= _kinds(spec), name
        assert _covers_every_workload(spec, definitions), name
    for name, entry in spec["layer_map"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["measures"]) <= _kinds(spec), name
        assert _covers_every_workload(spec, entry["measures"]), name


def test_setup_time_has_the_largest_bound():
    benchmark, _ = _definition()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert all(bounds["setup_s"] > b for n, b in bounds.items() if n != "setup_s")


def _per_layer_names():
    benchmark, _ = _definition()
    return {m["name"] for m in benchmark["per_layer"]}


def test_training_reports_every_per_layer_metric_and_its_roles_sum_to_the_step():
    recorder = SpanRecorder()
    recorder.spans.extend(
        [
            Span("data.open", 0.0, 0.5, None),
            Span("engine.step", 1.0, 2.0, None),
            Span("engine.sample", 1.0, 1.1, 1),
            Span("engine.group", 1.1, 1.2, 1),
            Span("engine.local_train", 1.2, 1.7, 1),
            Span("executor.run_step", 1.25, 1.65, 4),
            Span("accountant.preview", 1.7, 1.8, 1),
            Span("accountant.curve", 1.71, 1.79, 6),
            Span("engine.apply", 1.8, 1.9, 1),
        ]
    )
    step = {
        "users": 10, "buckets": 2, "batches": 6, "bucket_seconds": 0.3,
        "critical_seconds": 0.3, "shards": 1, "bytes": 0, "sigma": 2.5,
    }
    metrics, _, _ = layer_metrics(recorder, [step], [1.0], [0.9])
    assert set(metrics) == _per_layer_names()
    roles = ("intake_ms", "schedule_ms", "compute_ms", "dispatch_ms", "ledger_ms", "other_ms")
    assert sum(metrics[r]["value"] for r in roles) == pytest.approx(1000.0)
    assert metrics["dispatch_ms"]["value"] == pytest.approx(200.0)
    assert metrics["accountant.curves"]["value"] == 1
    assert metrics["load_s"]["value"] == pytest.approx(0.5)


def test_serving_reports_every_per_layer_metric_and_its_roles_sum_to_the_latency():
    spans = [
        Span("registry.load", 0.0, 0.02, None),
        Span("wire.decode", 1.0, 1.0001, None),
        Span("service.submit", 1.0001, 1.0002, None),
        Span("score", 1.001, 1.0015, None, {"n": 2}),
        Span("wire.encode", 1.003, 1.0031, None),
        Span("service.record", 1.0031, 1.00312, None),
    ]
    stats = {
        "request_mean_s": 0.003, "batch_mean_s": 0.001,
        "batches": 1, "queries_scored": 2, "shed": 0,
    }
    metrics, _, _ = _serving_layers(spans, stats, outside_ms=0.5, ledger_inside=True)
    # The caller adds the traced-vs-untraced overhead.
    assert set(metrics) | {"trace.overhead_frac"} == _per_layer_names()
    roles = ("intake_ms", "schedule_ms", "compute_ms", "dispatch_ms", "ledger_ms", "other_ms")
    assert sum(metrics[r]["value"] for r in roles) == pytest.approx(3.5)
