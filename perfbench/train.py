"""The training workloads: ``train-paper`` and ``train-ooc-schedule``.

Both drive the public facade, ``repro.train(config, corpus, ...)``, with a
benchmark :class:`~repro.observability.Observer` passed through
``observers=[...]``. The observer only reads: per-step counts and bucket
timings from the :class:`StepResult`, the ledger, and (traced runs only)
the step-span boundaries.

A run first trains a few one-step models with the main run's seed (set-up
samples, and a determinism check against the main run's first step),
then the main run with a fixed step cap derived from ``--seconds``, then
the output checks. A traced run adds a second main run with the span
recorder on; its per-layer self times plus ``engine.unattributed_ms`` are
reconciled against the step times the engine itself recorded.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.core.schedules import LinearDecaySchedule
from repro.nn.backends import get_backend
from repro.observability.observer import Observer
from repro.privacy.accountant.rdp import (
    DEFAULT_RDP_ORDERS,
    compute_rdp_sampled_gaussian,
    rdp_to_epsilon,
)

from perfbench import inputs
from perfbench.common import (
    Tally,
    median,
    metric,
    peak_rss_mb,
    percentile,
    samples_beyond,
)
from perfbench.spans import SpanRecorder, self_time_by_name, within


class StepProbe(Observer):
    """Reads each step's counts, bucket timings and the ledger.

    With a recorder attached it also opens an ``engine.step`` span at
    ``on_step_start`` and closes it at ``on_step_end``; being registered
    after the trainer's own observers, the span covers the whole stage
    sequence.
    """

    def __init__(self, workers: int, recorder: SpanRecorder | None = None) -> None:
        self.workers = workers
        self.recorder = recorder
        self.steps: list[dict[str, Any]] = []
        self.first_step_embeddings: np.ndarray | None = None
        self.ledger = None
        self._span: int | None = None
        self._bucket_seconds: list[float] = []
        self._batches = 0
        self._delta_bytes = 0

    def on_step_start(self, context, step: int) -> None:
        self._bucket_seconds = []
        self._batches = 0
        self._delta_bytes = 0
        if self.recorder is not None:
            self._span = self.recorder.open("engine.step", step=step)

    def on_bucket_done(self, context, step: int, update) -> None:
        self._bucket_seconds.append(update.wall_time_seconds)
        self._batches += update.num_batches
        self._delta_bytes += sum(
            update.rows[name].nbytes + update.values[name].nbytes
            for name in update.rows
        )

    def on_step_end(self, context, result) -> None:
        if self._span is not None:
            self.recorder.close(self._span)
            self._span = None
        self.ledger = context.ledger
        if result.step == 1:
            self.first_step_embeddings = context.embeddings().matrix.copy()
        buckets = self._bucket_seconds
        deferred = result.group.deferred
        shards = _shard_sizes(len(buckets), self.workers if deferred else 1)
        shard_seconds, start = [], 0
        for size in shards:
            shard_seconds.append(sum(buckets[start : start + size]))
            start += size
        theta_bytes = sum(
            context.model.params[name].nbytes for name in context.model.params
        )
        self.steps.append(
            {
                "users": len(result.sample.users),
                "buckets": len(buckets),
                "batches": self._batches,
                "bucket_seconds": sum(buckets),
                "critical_seconds": max(shard_seconds, default=0.0),
                "shards": len(shards),
                # Computed, not measured: theta goes out once per shard and
                # every clipped delta comes back; serial runs move nothing.
                "bytes": (theta_bytes * len(shards) + self._delta_bytes)
                if deferred
                else 0,
                "sigma": result.noise.sigma,
            }
        )


def _shard_sizes(jobs: int, parts: int) -> list[int]:
    """Contiguous near-even split, as the process executors chunk buckets."""
    if jobs == 0:
        return []
    parts = max(1, min(parts, jobs))
    size, extra = divmod(jobs, parts)
    return [size + (1 if part < extra else 0) for part in range(parts)]


def independent_epsilon(
    sigmas: list[float], q: float, delta: float
) -> float:
    """ε of the run recomputed from its σ sequence, outside the ledger.

    Composes per-step RDP curves by plain summation and converts with
    ``rdp_to_epsilon``. Integer orders are cheap, so all of them are
    evaluated; fractional orders are then evaluated only between the
    integer neighbours of the best integer order (ε is unimodal in the
    order), which keeps schedules with one σ per step affordable.
    """
    orders = np.asarray(DEFAULT_RDP_ORDERS)
    counts: dict[float, int] = {}
    for sigma in sigmas:
        counts[sigma] = counts.get(sigma, 0) + 1

    def total_rdp(indices: np.ndarray) -> np.ndarray:
        total = np.zeros(indices.size)
        for sigma, count in counts.items():
            total += count * compute_rdp_sampled_gaussian(q, sigma, 1, orders[indices])
        return total

    integral = np.flatnonzero(orders == np.round(orders))
    epsilons = [
        rdp_to_epsilon([orders[i]], [r], delta)[0]
        for i, r in zip(integral, total_rdp(integral))
    ]
    best = int(np.argmin(epsilons))
    low = orders[integral[max(0, best - 1)]]
    high = orders[integral[min(len(integral) - 1, best + 1)]]
    between = np.flatnonzero((orders > low) & (orders < high) & (orders != np.round(orders)))
    chosen = np.concatenate([integral, between])
    epsilon, _ = rdp_to_epsilon(orders[chosen], total_rdp(chosen), delta)
    return epsilon


def _install_wrappers(recorder: SpanRecorder, backend: str) -> None:
    """Wrap the public functions of every training layer."""
    import repro.api as api
    import repro.core.bucket as bucket
    import repro.core.trainer as trainer
    import repro.nn.backends.fast as fast
    import repro.nn.backends.reference as reference
    import repro.privacy.accountant.moments as moments
    from repro.core.engine import SerialExecutor, ShardedExecutor, StepPipeline

    recorder.wrap(api, "open_corpus", "data.open")
    recorder.wrap(trainer, "open_corpus", "data.open")
    recorder.wrap(trainer, "build_pair_source", "data.pairs_build")
    for stage in ("sample", "group", "local_train", "aggregate", "noise", "apply"):
        recorder.wrap(StepPipeline, stage, f"engine.{stage}")
    recorder.wrap(StepPipeline, "budget_would_cross", "accountant.preview")
    recorder.wrap(StepPipeline, "account", "accountant.account")
    # moments.py looks both names up in its own namespace.
    recorder.wrap(moments, "compute_rdp_sampled_gaussian", "accountant.curve")
    recorder.wrap(moments, "rdp_to_epsilon", "accountant.convert")
    recorder.wrap(SerialExecutor, "run_step", "executor.run_step")
    recorder.wrap(ShardedExecutor, "run_step", "executor.run_step")
    recorder.wrap(bucket, "build_bucket_batches", "kernel.batch_build")
    recorder.wrap(
        type(get_backend(backend)), "fused_multi_bucket_update", "kernel.fused"
    )
    recorder.wrap(reference, "clip_bucket_delta", "kernel.clip")
    recorder.wrap(fast, "clip_bucket_delta", "kernel.clip")


def _train(
    spec: dict, corpus, seed: int, steps: int, probe: StepProbe, schedule_steps: int
):
    """One ``repro.train`` call; returns the model, config and set-up time.

    The σ schedule always spans ``schedule_steps`` (the main run's length),
    so a shorter run takes exactly the main run's first steps.
    """
    config = repro.PLPConfig(
        backend=spec["backend"],
        noise_multiplier=spec["sigma_start"],
        max_steps=steps,
    )
    schedule = None
    if spec["sigma_end"] != spec["sigma_start"]:
        schedule = LinearDecaySchedule(
            spec["sigma_start"], spec["sigma_end"], decay_steps=schedule_steps
        )
    started = time.perf_counter()
    model = repro.train(
        config,
        corpus,
        rng=seed,
        executor=spec["executor"],
        workers=spec["workers"],
        noise_schedule=schedule,
        observers=[probe],
    )
    wall = time.perf_counter() - started
    step_seconds = sum(record.wall_time_seconds for record in model.history.steps)
    return model, config, wall - step_seconds


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool, workdir: Path):
    tally = Tally()
    train_set, holdout = inputs.training_corpus(
        seed,
        spec["users"],
        spec["holdout_users"],
        spec["locations"],
        spec["checkins_per_user"],
    )
    corpus: Any = train_set
    if spec["on_disk"]:
        corpus = inputs.sharded_store(train_set, workdir / "store")
    steps = max(10, round(seconds * spec["steps_per_second"]))

    # Set-up samples: one-step runs with the main run's seed.
    setups, first_steps, hrs = [], [], []
    for _ in range(spec["setup_repeats"]):
        probe = StepProbe(spec["workers"])
        model, _, setup = _train(spec, corpus, seed, 1, probe, steps)
        setups.append(setup)
        first_steps.append(model.embeddings.matrix)
        tally.operations(len(model.history))
        if len(hrs) < 2:
            hrs.append(_hr_at_10(model, holdout))

    probe = StepProbe(spec["workers"])
    model, config, setup = _train(spec, corpus, seed, steps, probe, steps)
    setups.append(setup)
    history = model.history
    tally.operations(len(history))
    step_seconds = [record.wall_time_seconds for record in history.steps]
    hr = _hr_at_10(model, holdout)

    sigmas = [step["sigma"] for step in probe.steps]
    reported = history.final_epsilon
    recomputed = independent_epsilon(
        sigmas, config.sampling_probability, config.delta
    )
    tally.check(
        "epsilon_matches_independent_recomputation",
        abs(recomputed - reported) <= 1e-9 * max(1.0, reported)
        and reported == probe.ledger.cumulative_budget_spent(),
    )
    tally.check("ledger_has_one_entry_per_step", len(probe.ledger) == len(history))
    tally.check(
        "embeddings_finite", bool(np.isfinite(model.embeddings.matrix).all())
    )
    tally.check(
        "same_seed_same_first_step",
        all(np.array_equal(first, probe.first_step_embeddings) for first in first_steps),
    )
    tally.check("same_seed_same_hr_at_10", len(set(hrs)) == 1)
    tally.check("hr_at_10_in_range", 0.0 < hr <= 1.0)

    detail: dict[str, Any] = {
        "steps": len(history),
        "sampled_users": sum(step["users"] for step in probe.steps),
        "hr_at_10": hr,
        "epsilon": reported,
        "epsilon_recomputed": recomputed,
        "sigma_first_last": [sigmas[0], sigmas[-1]],
        "setup_samples_s": setups,
        "step_samples": len(step_seconds),
        "step_samples_beyond_p90": samples_beyond(len(step_seconds), 90),
    }
    if not trace:
        # The operation of a training workload is one step; its throughput
        # is counted in sampled users, the user-level form of samples/s.
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_frac": metric(tally.ok_frac, "ratio"),
            "throughput_per_s": metric(
                detail["sampled_users"] / sum(step_seconds), "1/s"
            ),
            "latency_p50_ms": metric(percentile(step_seconds, 50) * 1e3, "ms"),
            "latency_p90_ms": metric(percentile(step_seconds, 90) * 1e3, "ms"),
        }
        return tally, metrics, detail

    recorder = SpanRecorder()
    _install_wrappers(recorder, spec["backend"])
    traced_probe = StepProbe(spec["workers"], recorder)
    try:
        traced_model, _, _ = _train(spec, corpus, seed, steps, traced_probe, steps)
    finally:
        recorder.unwrap_all()
    recorder.write(workdir.parent / f"trace-{name}-{seed}.jsonl")
    traced_steps = [record.wall_time_seconds for record in traced_model.history.steps]
    tally.operations(len(traced_steps))
    tally.check(
        "traced_run_bit_identical",
        np.array_equal(traced_model.embeddings.matrix, model.embeddings.matrix),
    )
    metrics, layers, accounting = layer_metrics(
        recorder, traced_probe.steps, traced_steps, step_seconds
    )
    detail["layers"] = layers
    detail["accounting"] = accounting
    return tally, metrics, detail


def _hr_at_10(model, holdout) -> float:
    return repro.evaluate(model, holdout, k_values=(10,)).hit_rate[10]


#: Span name -> fine-grained self time (ms per step) in the detail report.
_SELF_TIMES = {
    "engine.sample": "engine.sample_ms",
    "engine.group": "engine.group_ms",
    "engine.local_train": "engine.local_train_ms",
    "engine.aggregate": "engine.aggregate_ms",
    "engine.noise": "engine.noise_ms",
    "engine.apply": "engine.apply_ms",
    "engine.step": "engine.unattributed_ms",
    "executor.run_step": "executor.self_ms",
    "kernel.batch_build": "kernel.batch_build_ms",
    "kernel.fused": "kernel.fused_ms",
    "kernel.clip": "kernel.clip_ms",
}
_ACCOUNTANT_SPANS = (
    "accountant.preview",
    "accountant.account",
    "accountant.curve",
    "accountant.convert",
)


def layer_metrics(
    recorder: SpanRecorder,
    steps: list[dict[str, Any]],
    traced_step_seconds: list[float],
    untraced_step_seconds: list[float],
) -> tuple[dict[str, dict[str, Any]], dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one traced training run.

    Returns the per-layer metrics (the roles every workload reports), the
    fine-grained per-layer figures behind them, and the step accounting.
    A step splits into intake (``sample``), schedule (``group``), compute
    (the critical-path bucket compute), dispatch (the rest of
    ``local_train``: job building, the executor, result reduction), ledger
    (``budget_would_cross`` plus ``account``) and other (aggregate, noise,
    apply and the unattributed step time).
    """
    spans = recorder.spans
    in_steps = within(spans, "engine.step")
    count = len(steps)
    per_step = self_time_by_name(spans, in_steps)
    total_spans = sum(s.duration for s in spans if s.name == "engine.step")
    total_steps = sum(traced_step_seconds)

    def span_total(name: str) -> float:
        return sum(spans[i].duration for i in in_steps if spans[i].name == name)

    def span_count(name: str) -> int:
        return sum(1 for i in in_steps if spans[i].name == name)

    def ms(seconds: float) -> float:
        return seconds / count * 1e3

    layers: dict[str, float] = {
        "data.open_s": sum(s.duration for s in spans if s.name == "data.open"),
        "data.pairs_build_s": sum(
            s.duration for s in spans if s.name == "data.pairs_build"
        ),
    }
    for span_name, name in _SELF_TIMES.items():
        if span_name.startswith("kernel.") and "kernel.fused" not in per_step:
            continue  # the buckets ran in worker processes, out of the recorder's reach
        layers[name] = ms(per_step.get(span_name, 0.0))
    ledger = span_total("accountant.preview") + span_total("accountant.account")
    curves = span_count("accountant.curve")
    layers["accountant.ms_per_step"] = ms(ledger)
    layers["accountant.curves"] = curves
    layers["accountant.ms_per_curve"] = (
        span_total("accountant.curve") / max(1, curves) * 1e3
    )
    layers["accountant.convert_ms"] = ms(span_total("accountant.convert"))
    run_step = span_total("executor.run_step")
    critical = sum(step["critical_seconds"] for step in steps)
    layers["executor.run_step_ms"] = ms(run_step)
    layers["executor.overhead_ms"] = ms(run_step - critical)
    # Computed, not measured (see StepProbe).
    layers["executor.bytes_per_step"] = sum(step["bytes"] for step in steps) / count
    layers["executor.shards_per_step"] = sum(step["shards"] for step in steps) / count
    buckets = sum(step["buckets"] for step in steps)
    batches = sum(step["batches"] for step in steps)
    bucket_seconds = sum(step["bucket_seconds"] for step in steps)
    layers["kernel.bucket_ms"] = bucket_seconds / max(1, buckets) * 1e3
    layers["kernel.us_per_batch"] = bucket_seconds / max(1, batches) * 1e6
    layers["kernel.buckets_per_step"] = buckets / count
    layers["kernel.batches_per_step"] = batches / count

    intake = per_step.get("engine.sample", 0.0)
    schedule = per_step.get("engine.group", 0.0)
    dispatch = span_total("engine.local_train") - critical
    other = total_steps - (intake + schedule + critical + dispatch + ledger)
    out = {
        "load_s": metric(layers["data.open_s"] + layers["data.pairs_build_s"], "s"),
        "intake_ms": metric(ms(intake), "ms"),
        "schedule_ms": metric(ms(schedule), "ms"),
        "compute_ms": metric(ms(critical), "ms"),
        "compute_us_per_item": metric(layers["kernel.us_per_batch"], "us"),
        "items_per_call": metric(batches / max(1, buckets), "count"),
        "dispatch_ms": metric(ms(dispatch), "ms"),
        "ledger_ms": metric(ms(ledger), "ms"),
        "other_ms": metric(ms(other), "ms"),
        "accountant.curves": metric(curves, "count"),
        "trace.overhead_frac": metric(
            total_steps / sum(untraced_step_seconds) - 1.0, "ratio"
        ),
    }

    attributed = sum(per_step.values())
    accounting = {
        "step_time_s": total_steps,
        "step_spans_s": total_spans,
        "self_times_s": {name: per_step[name] for name in sorted(per_step)},
        "accountant_self_s": sum(per_step.get(name, 0.0) for name in _ACCOUNTANT_SPANS),
        "sum_self_times_s": attributed,
        "remainder_s": total_steps - attributed,
        "remainder_frac": (total_steps - attributed) / total_steps,
        "unattributed_share": per_step.get("engine.step", 0.0) / total_steps,
    }
    return out, layers, accounting
