"""End-to-end observability benchmark: train -> evaluate -> recommend.

Runs the full pipeline on the synthetic Foursquare-Tokyo workload with an
:class:`repro.Observability` bundle attached and writes one JSON report
(``BENCH_plp.json``) with:

- per-stage step time (sample/group/local_train/aggregate/noise/apply/
  account) from the engine's ``repro_engine_stage_seconds`` histogram,
  the same signal an operator scrapes (``account`` includes the budget
  preview),
- training throughput (steps, buckets/sec),
- a per-backend kernel comparison: the engine's ``local_train`` stage
  timed for every compute backend on one fixed workload, with the
  speedup over the ``reference`` backend (see
  :func:`measure_kernel_speedup`),
- tier-1 evaluation metrics (HR@k, MRR) plus per-query latency p50/p95
  from the ``repro_eval_query_seconds`` histogram,
- single-query ``recommend`` latency p50/p95,
- a sharded-executor scaling section: bucket throughput for the serial
  baseline vs the sharded executor at 1 and 2 workers on one fixed
  workload (best of interleaved repeats after a warm-up), with the
  end-to-end check that ledger and embeddings came out bit-identical
  across executors (:func:`measure_sharded_scaling`),
- a serving section (:func:`measure_serving`): the asyncio front end
  driven over real HTTP — serial per-request baseline vs sustained
  concurrent throughput (micro-batch coalescing), p50/p95 under load,
  the overload probe (503 + ``Retry-After``, zero silent drops), and
  the clustered ANN index's recall@10 against the exact kernel,
- peak RSS.

A second mode, ``--out-of-core``, materializes a disk-backed sharded
corpus and trains on it through the sharded executor, reporting build
and training throughput plus peak RSS; ``--rss-cap-mb`` turns the RSS
figure into a hard gate (exit code 4), which CI uses to prove training
memory stays flat as the corpus grows (:func:`run_out_of_core`).

Every report is checked against one rule table (:func:`validate_report`)
before it is written. When a committed baseline report exists
(``BENCH_plp.json`` at the repo root, or ``--baseline``), the fresh
report is diffed against it and a >25% regression in training throughput
(buckets/sec) or recommend p95 fails the run with exit code 3
(:func:`compare_to_baseline`).

Run it through the CLI::

    repro bench --quick --out BENCH_plp.json
"""

from __future__ import annotations

import argparse
import json
import reprlib
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import repro
from repro.core.engine.blas import available_cores
from repro.core.engine.engine import STAGE_NAMES
from repro.observability import peak_rss_bytes
from repro.privacy.accountant.rdp import load_special_functions

__all__ = [
    "SCHEMA_VERSION",
    "STAGE_NAMES",
    "compare_to_baseline",
    "measure_kernel_speedup",
    "measure_serving",
    "measure_sharded_scaling",
    "measure_sweep",
    "run_benchmark",
    "run_from_args",
    "run_out_of_core",
    "validate_report",
]

SCHEMA_VERSION = 5

#: Workload/config knobs per mode. ``quick`` finishes in seconds; ``full``
#: trains to a meaningful fraction of the budget.
_MODES = {
    "quick": dict(
        num_users=80, num_locations=60, num_clusters=5,
        max_steps=3, recommend_queries=50, kernel_repeats=2,
    ),
    "full": dict(
        num_users=600, num_locations=200, num_clusters=10,
        max_steps=40, recommend_queries=500, kernel_repeats=3,
    ),
}

#: The kernel-comparison workload (independent of --quick: the tiny smoke
#: workload would mostly measure fixed overheads, not the kernels). Sized
#: so the reference backend's ``local_train`` runs long enough to time
#: reliably while the whole comparison stays a few seconds.
_KERNEL_WORKLOAD = dict(
    num_users=1500, num_locations=9000, mean_checkins_per_user=80.0,
    max_steps=3, data_seed=5,
)

#: The sharded-scaling workload: reference backend and a high grouping
#: factor, so each bucket carries substantial local compute relative to
#: its fixed shipping cost (a bucket's clipped delta is dense in the
#: vocabulary regardless of how many users it holds), and enough steps
#: to amortize the one-time pool start. ``repeats`` interleaved timed
#: rounds follow one warm-up; the best run per executor is kept. Sized to
#: stay a few seconds per run.
_SHARDED_WORKLOAD = dict(
    num_users=400, num_locations=300, num_clusters=8,
    mean_checkins_per_user=60.0, max_steps=8, grouping_factor=8,
    sampling_probability=0.4, backend="reference", data_seed=9, repeats=3,
)

#: The serving workload: a seconds-scale model plus the request counts
#: for the three phases (serial baseline, sustained concurrency, the
#: overload burst). Sized so the whole section stays a few seconds while
#: the sustained phase still fills micro-batches.
_SERVING_WORKLOAD = dict(
    num_users=80, num_locations=60, num_clusters=5, max_steps=3,
    baseline_requests=40, sustained_requests=360, clients=24,
    max_batch=64, max_wait_seconds=0.005, overload_clients=32,
)

#: The ANN-recall workload: a clustered synthetic embedding matrix large
#: enough that the index's default partition (about ``sqrt(L)`` clusters,
#: ``nprobe=8``) is genuinely sublinear rather than a full scan.
_ANN_WORKLOAD = dict(
    num_locations=2048, dim=32, num_clusters=24, spread=0.25, top_k=10,
)

#: The sweep-orchestrator workload: a 2-axis x 2-value x 2-seed grid (8
#: runs) of seconds-scale configs dispatched across 2 workers, then
#: resumed to measure the manifest/outcome-scan overhead. Independent of
#: --quick for the same reason as the kernel workload: the orchestrator's
#: dispatch/resume costs are what is being gated, on a fixed grid.
_SWEEP_WORKLOAD = dict(
    num_users=60, num_locations=40, num_clusters=5,
    mean_checkins_per_user=20.0, holdout_users=10, max_steps=2,
    workers=2,
)

#: Regression threshold for :func:`compare_to_baseline` (fractional).
_REGRESSION_THRESHOLD = 0.25

#: Absolute slack for the recommend-p95 check: at the quick scale p95 is
#: tens of microseconds, where a scheduler blip alone exceeds 25%; a
#: regression must clear both the relative threshold and this floor.
_P95_SLACK_SECONDS = 0.0005


#: The :class:`repro.SyntheticConfig` fields a workload spec may set.
_SYNTHETIC_FIELDS = (
    "num_users", "num_locations", "num_clusters", "mean_checkins_per_user",
)


def _synthetic_dataset(spec: dict, seed: int):
    """The paper-preprocessed synthetic corpus a workload spec describes."""
    config = repro.SyntheticConfig(
        **{field: spec[field] for field in _SYNTHETIC_FIELDS if field in spec}
    )
    return repro.CheckinDataset(
        repro.paper_preprocessing(repro.generate_checkins(config, rng=seed))
    )


def _build_workload(mode: dict, seed: int):
    dataset = _synthetic_dataset(mode, seed)
    holdout_size = max(5, mode["num_users"] // 10)
    return repro.holdout_users_split(dataset, holdout_size, rng=seed)


def _holdout_queries(holdout) -> list[list[int]]:
    """Each held-out trajectory of two or more visits, minus its last."""
    return [
        list(trajectory.locations[:-1])
        for trajectory in repro.sessionize_dataset(holdout)
        if len(trajectory) >= 2
    ]


def _stage_seconds(registry) -> dict:
    """``{stage: {count, total_seconds, mean_seconds, max_seconds}}`` for
    every engine stage, read from ``repro_engine_stage_seconds``."""
    histogram = registry.histogram("repro_engine_stage_seconds")
    stages = {}
    for stage in STAGE_NAMES:
        stats = histogram.stats(stage=stage)
        stages[stage] = {
            "count": stats["count"],
            "total_seconds": stats["total"],
            "mean_seconds": stats["mean"],
            "max_seconds": stats["max"],
        }
    return stages


def _timed_train(config, dataset, seed: int, **train_kwargs):
    """One instrumented training run; returns the model and the total of
    its ``local_train`` stage, the part the backend and executor own."""
    obs = repro.with_observability()
    model = repro.train(
        config, dataset, rng=seed, with_observability=obs, **train_kwargs
    )
    obs.close()
    return model, _stage_seconds(obs.metrics)["local_train"]["total_seconds"]


def measure_kernel_speedup(repeats: int = 3, seed: int = 7) -> dict:
    """Time the engine's ``local_train`` stage per compute backend.

    All backends train on the same fixed workload (``_KERNEL_WORKLOAD``)
    at the default :class:`repro.PLPConfig` (only ``max_steps`` and
    ``backend`` overridden). Runs are interleaved — one fast run, one
    reference run, ``repeats`` times — and the best run per backend is
    kept, so a noisy-neighbor blip degrades both backends alike instead
    of skewing the ratio.
    """
    spec = _KERNEL_WORKLOAD
    dataset = _synthetic_dataset(spec, spec["data_seed"])
    configs = {
        backend: repro.PLPConfig(max_steps=spec["max_steps"], backend=backend)
        for backend in ("fast", "reference")
    }

    _timed_train(configs["fast"], dataset, seed)  # warm caches/allocator
    best: dict[str, float] = {}
    for _ in range(max(1, repeats)):
        for backend, config in configs.items():
            _, seconds = _timed_train(config, dataset, seed)
            best[backend] = min(best.get(backend, float("inf")), seconds)

    reference = best["reference"]
    return {
        "workload": {
            "num_users": spec["num_users"],
            "num_locations": spec["num_locations"],
            "mean_checkins_per_user": spec["mean_checkins_per_user"],
            "max_steps": spec["max_steps"],
            "repeats": int(repeats),
        },
        "local_train_seconds": dict(sorted(best.items())),
        "speedup_vs_reference": {
            backend: reference / seconds
            for backend, seconds in sorted(best.items())
            if backend != "reference"
        },
    }


def measure_sharded_scaling(
    seed: int = 7, worker_counts: tuple[int, ...] = (1, 2)
) -> dict:
    """Bucket throughput of the sharded executor vs the serial baseline.

    All runs train the same fixed workload (``_SHARDED_WORKLOAD``) from
    the same seed and time the engine's ``local_train`` stage; the other
    stages are single-writer by design and identical across executors.
    One serial warm-up run goes first and is not timed. Then the
    executors run interleaved — serial, then each worker count, the
    workload's ``repeats`` times — and the best run per executor is kept,
    as in :func:`measure_kernel_speedup`: a cold first run or a
    noisy-neighbor blip cannot decide the ratio. Besides the timings, the
    section records that the privacy ledger and the embeddings came out
    **bit-identical** across executors and repeats — the
    executor-equivalence contract, measured end to end.
    """
    spec = _SHARDED_WORKLOAD
    dataset = _synthetic_dataset(spec, spec["data_seed"])
    config = repro.PLPConfig(
        max_steps=spec["max_steps"],
        grouping_factor=spec["grouping_factor"],
        sampling_probability=spec["sampling_probability"],
        backend=spec["backend"],
    )

    def bucket_count(model) -> int:
        return sum(record.num_buckets for record in model.history)

    # One serial warm-up run, not timed; its model is the identity reference.
    reference, _ = _timed_train(config, dataset, seed, executor="serial", workers=None)
    buckets = bucket_count(reference)
    runs = [("serial", None)] + [("sharded", count) for count in worker_counts]
    best: dict[int | None, float] = {}
    ledger_identical = True
    embeddings_identical = True
    for _ in range(spec["repeats"]):
        for executor, workers in runs:
            model, seconds = _timed_train(
                config, dataset, seed, executor=executor, workers=workers
            )
            best[workers] = min(best.get(workers, float("inf")), seconds)
            ledger_identical &= (
                model.privacy["epsilon"] == reference.privacy["epsilon"]
                and bucket_count(model) == buckets
            )
            embeddings_identical &= bool(
                np.array_equal(model.embeddings.matrix, reference.embeddings.matrix)
            )

    serial_seconds = best[None]
    per_worker = {
        str(count): {
            "seconds": best[count],
            "buckets_per_second": buckets / best[count] if best[count] else 0.0,
            "speedup_vs_serial": serial_seconds / best[count] if best[count] else 0.0,
        }
        for count in worker_counts
    }
    return {
        "workload": {
            "num_users": spec["num_users"],
            "num_locations": spec["num_locations"],
            "max_steps": spec["max_steps"],
            "grouping_factor": spec["grouping_factor"],
            "sampling_probability": spec["sampling_probability"],
            "repeats": spec["repeats"],
        },
        # Worker scaling is bounded by the cores the process may use;
        # on a single-core host the sharded numbers measure pure
        # shipping overhead, not parallel throughput.
        "available_cores": available_cores(),
        "buckets_total": int(buckets),
        "serial": {
            "seconds": serial_seconds,
            "buckets_per_second": buckets / serial_seconds if serial_seconds else 0.0,
        },
        "workers": per_worker,
        "ledger_identical": bool(ledger_identical),
        "embeddings_identical": bool(embeddings_identical),
    }


def _clustered_embeddings(
    num_locations: int, dim: int, num_clusters: int, spread: float, seed: int
):
    """A deterministic clustered unit-norm embedding matrix (ANN workload)."""
    from repro.models.embeddings import EmbeddingMatrix
    from repro.rng import ensure_rng

    rng = ensure_rng(seed)
    centers = rng.normal(size=(num_clusters, dim))
    assignment = np.arange(num_locations) % num_clusters
    points = centers[assignment] + spread * rng.normal(size=(num_locations, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return EmbeddingMatrix.from_normalized(points)


def measure_ann_recall(seed: int = 7) -> dict:
    """Recall@k of the clustered sublinear index vs the exact kernel.

    Builds :class:`~repro.serving.ann.ClusteredIndex` with its defaults
    (about ``sqrt(L)`` clusters, ``nprobe=8``) over a clustered synthetic
    embedding matrix and compares its top-k against the exact full-matrix
    float32 scoring for a spread of query profiles.
    """
    from repro.serving.ann import ClusteredIndex

    spec = _ANN_WORKLOAD
    embeddings = _clustered_embeddings(
        spec["num_locations"], spec["dim"], spec["num_clusters"],
        spec["spread"], seed,
    )
    index = ClusteredIndex(embeddings)
    matrix = embeddings.matrix32
    profiles = matrix[:: max(1, spec["num_locations"] // 128)]
    exact_top = np.argsort(
        -(profiles @ matrix.T), axis=1, kind="stable"
    )[:, : spec["top_k"]]
    recall = index.recall_at_k(profiles, exact_top)
    return {
        "num_locations": int(spec["num_locations"]),
        "dim": int(spec["dim"]),
        "num_clusters": int(index.num_clusters),
        "nprobe": int(index.nprobe),
        "profiles": int(profiles.shape[0]),
        "top_k": int(spec["top_k"]),
        "recall": float(recall),
    }


def _sweep_bench_spec(seed: int):
    from repro.experiments.sweep import GridSpec

    spec = _SWEEP_WORKLOAD
    return GridSpec.from_dict({
        "name": "bench-sweep",
        "axes": {"epsilon": [1.0, 5.0], "grouping_factor": [1, 4]},
        "base": {
            "embedding_dim": 8, "num_negatives": 4,
            "sampling_probability": 0.2, "noise_multiplier": 2.0,
            "max_steps": spec["max_steps"],
        },
        "seeds": 2,
        "seed": int(seed),
        "workload": {
            "synthetic": {field: spec[field] for field in _SYNTHETIC_FIELDS},
            "holdout_users": spec["holdout_users"],
        },
    })


def measure_sweep(seed: int = 7) -> dict:
    """Benchmark the sweep orchestrator: parallel dispatch + resume.

    Runs the fixed 8-run grid (``_SWEEP_WORKLOAD``) fresh across a
    2-worker pool (runs/sec = end-to-end orchestration throughput,
    including workload rebuild and outcome persistence), then resumes
    the completed sweep to measure the manifest-scan overhead — the
    resume pass must skip every run and cost a small fraction of the
    fresh pass.
    """
    import tempfile

    from repro.experiments.sweep import run_sweep

    grid = _sweep_bench_spec(seed)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "sweep"
        fresh_started = time.perf_counter()
        fresh = run_sweep(grid, out_dir, workers=int(_SWEEP_WORKLOAD["workers"]))
        fresh_seconds = time.perf_counter() - fresh_started
        resume_started = time.perf_counter()
        resumed = run_sweep(
            grid, out_dir, workers=int(_SWEEP_WORKLOAD["workers"]), resume=True
        )
        resume_seconds = time.perf_counter() - resume_started
    return {
        "runs": int(fresh.total),
        "workers": int(_SWEEP_WORKLOAD["workers"]),
        "executed": int(fresh.executed),
        "failed": int(fresh.failed),
        "fresh_seconds": float(fresh_seconds),
        "runs_per_second": float(fresh.total / fresh_seconds),
        "resume_seconds": float(resume_seconds),
        "resume_skipped": int(resumed.skipped),
        "resume_executed": int(resumed.executed),
        "resume_overhead_ratio": float(resume_seconds / fresh_seconds),
    }


_JSON_HEADERS = {"Content-Type": "application/json"}


def _post(conn, body: bytes) -> tuple:
    """POST one recommend body; returns (status, Retry-After, latency)."""
    started = time.perf_counter()
    conn.request("POST", "/recommend", body, _JSON_HEADERS)
    response = conn.getresponse()
    response.read()
    return (
        response.status,
        response.getheader("Retry-After"),
        time.perf_counter() - started,
    )


def _drive_clients(
    port: int, client_bodies: list[list[bytes]], warm_body: bytes | None = None
) -> tuple[list[list[tuple]], float]:
    """Release one client thread per body list at once; client ``i``
    posts ``client_bodies[i]`` over its own keep-alive connection, after
    posting ``warm_body`` (if given) before the release. Returns each
    client's :func:`_post` results and the wall time after the release."""
    import threading
    from http.client import HTTPConnection

    results: list[list[tuple]] = [[] for _ in client_bodies]
    barrier = threading.Barrier(len(client_bodies) + 1)

    def run_client(index: int) -> None:
        conn = HTTPConnection("127.0.0.1", port)
        try:
            if warm_body is not None:
                _post(conn, warm_body)
            barrier.wait()
            for body in client_bodies[index]:
                results[index].append(_post(conn, body))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=run_client, args=(index,))
        for index in range(len(client_bodies))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - started


def measure_serving(seed: int = 7) -> dict:
    """Benchmark the asyncio serving front end over real HTTP.

    Three phases against a freshly trained seconds-scale artifact:

    1. **baseline** — one client, one request in flight: every request
       pays the full micro-batch window alone (the per-request cost).
    2. **sustained** — ``clients`` concurrent keep-alive connections:
       the batcher coalesces, so throughput should multiply while the
       queue bound keeps latency flat.
    3. **overload** — a burst against a tiny-queue deployment: excess
       load must be shed with 503 + ``Retry-After`` and every request
       must still get *some* response (zero silent drops).

    Plus the exact-vs-ANN recall comparison (:func:`measure_ann_recall`).
    """
    import shutil
    import tempfile
    from http.client import HTTPConnection

    from repro.models.serialization import save_deployable_model
    from repro.serving.asgi import BackgroundServer
    from repro.serving.service import RecommendService

    spec = _SERVING_WORKLOAD
    train_set, holdout = _build_workload(spec, seed)
    config = repro.PLPConfig(
        epsilon=2.0, max_steps=spec["max_steps"], grouping_factor=4,
        sampling_probability=0.2,
    )
    model = repro.train(config, train_set, rng=seed)
    queries = _holdout_queries(holdout) or [[0]]
    bodies = [
        json.dumps({"v": 1, "recent": query, "top_k": 10}).encode("utf-8")
        for query in queries
    ]

    scratch = tempfile.mkdtemp(prefix="repro-serving-bench-")
    try:
        artifact = Path(scratch) / "model.npz"
        save_deployable_model(
            artifact, model.embeddings, model.vocabulary, model.privacy
        )

        service = RecommendService.from_artifact(
            artifact, max_batch=spec["max_batch"],
            max_wait_seconds=spec["max_wait_seconds"],
            timeout_seconds=10.0, max_queue=8192,
        )
        with BackgroundServer(service) as server:
            conn = HTTPConnection("127.0.0.1", server.port)
            _post(conn, bodies[0])  # warm the connection and the caches
            baseline_latencies: list[float] = []
            started = time.perf_counter()
            for i in range(spec["baseline_requests"]):
                _, _, latency = _post(conn, bodies[i % len(bodies)])
                baseline_latencies.append(latency)
            baseline_wall = time.perf_counter() - started
            conn.close()

            clients = spec["clients"]
            per_client = spec["sustained_requests"] // clients
            results, sustained_wall = _drive_clients(
                server.port,
                [
                    [bodies[(idx + j) % len(bodies)] for j in range(per_client)]
                    for idx in range(clients)
                ],
                warm_body=bodies[0],
            )
        service.close()

        flat = [entry for per in results for entry in per]
        sent = clients * per_client
        ok = [entry for entry in flat if entry[0] == 200]
        shed = [entry for entry in flat if entry[0] == 503]
        latencies = [entry[2] for entry in ok]

        # Overload probe: a deliberately tiny deployment (queue bound 2,
        # slow batch cadence) hit with one simultaneous burst.
        overload_service = RecommendService.from_artifact(
            artifact, max_batch=4, max_wait_seconds=0.05,
            timeout_seconds=10.0, max_queue=2,
        )
        burst_size = spec["overload_clients"]
        with BackgroundServer(overload_service) as server:
            burst_results, _ = _drive_clients(
                server.port,
                [[bodies[idx % len(bodies)]] for idx in range(burst_size)],
            )
        overload_service.close()

        burst = [per[0] if per else None for per in burst_results]
        burst_shed = [entry for entry in burst if entry and entry[0] == 503]
        burst_ok = [entry for entry in burst if entry and entry[0] == 200]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    baseline_rps = (
        spec["baseline_requests"] / baseline_wall if baseline_wall else 0.0
    )
    sustained_rps = len(ok) / sustained_wall if sustained_wall else 0.0
    return {
        "workload": {
            "num_users": int(spec["num_users"]),
            "num_locations": int(spec["num_locations"]),
            "max_batch": int(spec["max_batch"]),
            "max_wait_seconds": float(spec["max_wait_seconds"]),
        },
        "baseline": {
            "requests": int(spec["baseline_requests"]),
            "req_per_s": baseline_rps,
            "p50_seconds": float(np.percentile(baseline_latencies, 50)),
            "p95_seconds": float(np.percentile(baseline_latencies, 95)),
        },
        "sustained": {
            "requests": int(sent),
            "clients": int(clients),
            "req_per_s": sustained_rps,
            "p50_seconds": float(np.percentile(latencies, 50)),
            "p95_seconds": float(np.percentile(latencies, 95)),
            "ok": len(ok),
            "shed": len(shed),
            "errors": int(sent - len(ok) - len(shed)),
            "shed_rate": len(shed) / sent if sent else 0.0,
            "all_responded": len(flat) == sent,
            "speedup_vs_baseline": (
                sustained_rps / baseline_rps if baseline_rps else 0.0
            ),
        },
        "overload": {
            "requests": int(burst_size),
            "ok": len(burst_ok),
            "shed": len(burst_shed),
            "shed_rate": len(burst_shed) / burst_size if burst_size else 0.0,
            "retry_after_present": bool(burst_shed)
            and all(entry[1] is not None for entry in burst_shed),
            "all_responded": all(entry is not None for entry in burst),
        },
        "ann": measure_ann_recall(seed=seed),
    }


def run_out_of_core(
    users: int = 20_000,
    rounds: int = 2,
    workers: int = 2,
    rss_cap_mb: float | None = None,
    seed: int = 7,
    store_dir: "str | Path | None" = None,
) -> dict:
    """Materialize a disk-backed corpus and train on it out-of-core.

    Builds a sharded store with the vectorized bulk generator, runs
    ``rounds`` Algorithm 1 steps through the sharded executor, and
    records wall times, throughput, store size, and the process peak RSS.
    With ``rss_cap_mb`` set, ``under_cap`` reports whether the peak RSS
    stayed below the cap (the CLI exits 4 when it did not).
    """
    import shutil
    import tempfile

    from repro.core.trainer import PrivateLocationPredictor
    from repro.data.synthetic import materialize_synthetic_store

    config = repro.SyntheticConfig(
        num_users=users,
        num_locations=min(2000, max(100, users // 50)),
        num_clusters=20,
    )
    scratch = None
    if store_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-ooc-")
        store_path = Path(scratch) / "corpus"
    else:
        store_path = Path(store_dir)

    try:
        build_started = time.perf_counter()
        store = materialize_synthetic_store(
            config, path=store_path, rng=seed, profile="bulk"
        )
        build_seconds = time.perf_counter() - build_started
        store_bytes = sum(
            entry.stat().st_size for entry in store_path.iterdir()
        )

        # Sample a few hundred users per round regardless of corpus size,
        # so the measured round cost reflects out-of-core access, not a
        # corpus-proportional amount of local training.
        q = min(0.5, max(256.0 / users, 1e-6))
        plp = repro.PLPConfig(
            embedding_dim=32,
            sampling_probability=q,
            max_steps=rounds,
            epsilon=1000.0,
            backend="fast",
        )
        trainer = PrivateLocationPredictor(
            plp, rng=seed, executor="sharded", workers=workers
        )
        load_special_functions()  # not timed as training
        train_started = time.perf_counter()
        with store:
            trainer.fit(store)
        train_seconds = time.perf_counter() - train_started
        buckets = sum(record.num_buckets for record in trainer.history)

        peak_rss = peak_rss_bytes()
        under_cap = None
        if rss_cap_mb is not None and peak_rss is not None:
            under_cap = peak_rss <= rss_cap_mb * 1024 * 1024
        return {
            "schema_version": SCHEMA_VERSION,
            "out_of_core": {
                "num_users": int(store.num_users),
                "num_checkins": int(store.num_checkins),
                "num_shards": int(store.describe()["num_shards"]),
                "store_bytes": int(store_bytes),
                "build_seconds": build_seconds,
                "rounds": len(trainer.history),
                "workers": int(workers),
                "sampling_probability": q,
                "train_seconds": train_seconds,
                "buckets_total": int(buckets),
                "buckets_per_second": buckets / train_seconds if train_seconds else 0.0,
                "epsilon_spent": trainer.epsilon_spent(),
                "peak_rss_bytes": peak_rss,
                "rss_cap_mb": rss_cap_mb,
                "under_cap": under_cap,
            },
        }
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def run_benchmark(
    quick: bool = True, seed: int = 7, backend: str = "reference"
) -> dict:
    """Run the instrumented pipeline and return the (validated) report."""
    mode = _MODES["quick" if quick else "full"]
    train_set, holdout = _build_workload(mode, seed)

    obs = repro.with_observability()
    config = repro.PLPConfig(
        epsilon=2.0, max_steps=mode["max_steps"], grouping_factor=4,
        sampling_probability=0.2, backend=backend,
    )

    load_special_functions()  # not timed as training
    train_started = time.perf_counter()
    model = repro.train(config, train_set, rng=seed, with_observability=obs)
    train_seconds = time.perf_counter() - train_started

    result = repro.evaluate(model, holdout, with_observability=obs)

    # Single-query serving-style latency, measured through the same
    # registry so p50/p95 come from one quantile implementation.
    recommend_seconds = obs.metrics.histogram(
        "repro_bench_recommend_seconds", "Single-query recommend latency"
    )
    recommender = model.recommender()
    queries = _holdout_queries(holdout)
    queries = (queries * (mode["recommend_queries"] // max(1, len(queries)) + 1))[
        : mode["recommend_queries"]
    ]
    for query in queries:
        started = time.perf_counter()
        try:
            recommender.recommend(query, top_k=10)
        except repro.ConfigError:
            continue
        recommend_seconds.observe(time.perf_counter() - started)

    steps = int(obs.metrics.counter("repro_engine_steps_total").total())
    buckets = int(obs.metrics.counter("repro_engine_buckets_total").total())
    query_seconds = obs.metrics.histogram("repro_eval_query_seconds")

    report = {
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "seed": int(seed),
        "backend": str(backend),
        "generated_unix": time.time(),
        "workload": {
            "num_train_users": train_set.num_users,
            "num_checkins": train_set.num_checkins,
            "vocabulary_size": model.vocabulary.size,
        },
        "training": {
            "steps": steps,
            "total_seconds": train_seconds,
            "buckets_total": buckets,
            "buckets_per_second": buckets / train_seconds if train_seconds else 0.0,
            "epsilon_spent": float(model.privacy.get("epsilon", 0.0)),
            "stage_seconds": _stage_seconds(obs.metrics),
        },
        "kernels": measure_kernel_speedup(
            repeats=mode["kernel_repeats"], seed=seed
        ),
        "sharded": measure_sharded_scaling(seed=seed),
        "serving": measure_serving(seed=seed),
        "sweep": measure_sweep(seed=seed),
        "evaluation": {
            "cases": result.num_cases,
            "skipped": result.num_skipped,
            "hit_rate": {str(k): v for k, v in sorted(result.hit_rate.items())},
            "mrr": result.mrr,
            "query_seconds_p50": query_seconds.quantile(0.5),
            "query_seconds_p95": query_seconds.quantile(0.95),
        },
        "recommend": {
            "queries": recommend_seconds.count(),
            "p50_seconds": recommend_seconds.quantile(0.5),
            "p95_seconds": recommend_seconds.quantile(0.95),
        },
        "peak_rss_bytes": peak_rss_bytes(),
    }
    obs.close()
    validate_report(report)
    return report


# Each helper below returns one rule's ``(check, requirement)`` pair.
_Check = Callable[[Any], bool]


def _is(kind: type) -> tuple[_Check, str]:
    return (lambda value: isinstance(value, kind)), f"expected {kind.__name__}"


def _above(kind: type, floor: float) -> tuple[_Check, str]:
    return (
        lambda value: isinstance(value, kind) and value > floor
    ), f"expected {kind.__name__} > {floor}"


def _at_least(kind: type, floor: float) -> tuple[_Check, str]:
    return (
        lambda value: isinstance(value, kind) and value >= floor
    ), f"expected {kind.__name__} >= {floor}"


def _dict_with(key: str) -> tuple[_Check, str]:
    return (
        lambda value: isinstance(value, dict) and key in value
    ), f"expected dict with {key!r}"


_NON_EMPTY_DICT: tuple[_Check, str] = (
    lambda value: isinstance(value, dict) and bool(value), "expected non-empty dict"
)


def _is_true(value) -> bool:
    return value is True


def _p50_le_p95(section) -> bool:
    p50, p95 = section["p50_seconds"], section["p95_seconds"]
    return isinstance(p50, float) and isinstance(p95, float) and p50 <= p95


#: :func:`validate_report`'s rule table: ``(dotted path, check,
#: requirement)``; a ``*`` segment matches every key of a dict. The only
#: timing floors are the sharded 0.5x overhead bound and the serving >1x
#: sanity floor: the near-linear scaling floor is the test
#: ``test_sharded_scales_with_cores``, and the >=10x serving gate runs in
#: CI, where the load is controlled.
_RULES: tuple[tuple[str, _Check, str], ...] = (
    ("schema_version", *_is(int)),
    ("schema_version", lambda version: version == SCHEMA_VERSION,
     f"expected {SCHEMA_VERSION}"),
    ("quick", *_is(bool)),
    ("seed", *_is(int)),
    ("backend", *_is(str)),
    ("generated_unix", *_is(float)),
    *((section, *_is(dict)) for section in (
        "workload", "training", "kernels", "sharded", "serving", "sweep",
        "evaluation", "recommend",
    )),
    ("peak_rss_bytes", lambda rss: rss is None or (isinstance(rss, int) and rss > 0),
     "expected int > 0 or null"),
    # Training: counters, throughput and the exact stage breakdown.
    ("training.steps", *_at_least(int, 0)),
    ("training.buckets_total", *_at_least(int, 0)),
    ("training.total_seconds", *_at_least(float, 0)),
    ("training.buckets_per_second", *_at_least(float, 0)),
    ("training.stage_seconds", lambda stages: set(stages) == set(STAGE_NAMES),
     f"expected stages {sorted(STAGE_NAMES)}"),
    *((f"training.stage_seconds.*.{key}", lambda value: isinstance(value, (int, float)),
       "expected number") for key in ("count", "total_seconds", "mean_seconds", "max_seconds")),
    # Kernel comparison.
    ("kernels.local_train_seconds", *_dict_with("reference")),
    ("kernels.local_train_seconds.*", *_above(float, 0)),
    ("kernels.speedup_vs_reference", *_dict_with("fast")),
    ("kernels.speedup_vs_reference.*", *_above(float, 0)),
    # Sharded executor: one ledger and one model across executors, and
    # bounded shipping overhead.
    ("sharded.serial.buckets_per_second", *_above(float, 0)),
    ("sharded.workers", *_NON_EMPTY_DICT),
    *((f"sharded.workers.*.{key}", *_above(float, 0))
      for key in ("seconds", "buckets_per_second", "speedup_vs_serial")),
    ("sharded.workers.*.speedup_vs_serial", lambda speedup: speedup >= 0.5,
     "below the 0.5x overhead floor vs serial"),
    ("sharded.ledger_identical", _is_true, "executors must produce one ledger"),
    ("sharded.embeddings_identical", _is_true, "executors must produce one model"),
    # Serving: batching pays, overload is shed with Retry-After and no
    # request goes unanswered, and the ANN index keeps its recall.
    *((f"serving.{phase}.req_per_s", *_above(float, 0))
      for phase in ("baseline", "sustained")),
    *((f"serving.{phase}", lambda entry: _p50_le_p95(entry) and entry["p50_seconds"] >= 0,
       "expected float 0 <= p50_seconds <= p95_seconds")
      for phase in ("baseline", "sustained")),
    ("serving.sustained.all_responded", _is_true, "silent request drops detected"),
    ("serving.sustained.shed_rate", lambda rate: isinstance(rate, float) and 0 <= rate <= 1,
     "expected float in [0, 1]"),
    # Batched throughput must beat the serial per-request baseline.
    ("serving.sustained.speedup_vs_baseline", *_above(float, 1.0)),
    ("serving.overload.shed", *_above(int, 0)),
    ("serving.overload.retry_after_present", _is_true,
     "503 responses must carry Retry-After"),
    ("serving.overload.all_responded", _is_true, "silent request drops detected"),
    ("serving.ann.recall", lambda recall: isinstance(recall, float) and 0 <= recall <= 1,
     "expected float in [0, 1]"),
    ("serving.ann.recall", *_at_least(float, 0.95)),  # the recall@10 contract
    # Sweep orchestrator: a complete parallel pass, then a resume that
    # skips every run at a small fraction of the fresh pass's cost.
    ("sweep.runs", *_at_least(int, 8)),
    ("sweep.workers", *_at_least(int, 2)),
    ("sweep", lambda sweep: sweep["executed"] == sweep["runs"],
     "expected executed == runs: the fresh pass must execute every run"),
    ("sweep.failed", lambda failed: failed == 0, "expected zero failed runs"),
    *((f"sweep.{key}", *_above(float, 0))
      for key in ("fresh_seconds", "runs_per_second", "resume_seconds")),
    ("sweep", lambda sweep: sweep["resume_skipped"] == sweep["runs"],
     "expected resume_skipped == runs: resume must skip every completed run"),
    ("sweep.resume_executed", lambda executed: executed == 0,
     "resume must re-execute nothing"),
    ("sweep.resume_overhead_ratio", lambda ratio: isinstance(ratio, float) and 0 <= ratio < 0.5,
     "resume must cost <50% of a fresh run"),
    # Evaluation and single-query recommend latency.
    ("evaluation.hit_rate", *_NON_EMPTY_DICT),
    ("evaluation.query_seconds_p50", *_is(float)),
    ("evaluation.query_seconds_p95", *_is(float)),
    ("recommend.queries", *_above(int, 0)),
    ("recommend", _p50_le_p95, "expected float p50_seconds <= p95_seconds"),
)

_MISSING = object()


def _resolve(report: dict, path: str) -> list[tuple[str, Any]]:
    """Every ``(resolved path, value)`` a rule path names.

    A ``*`` segment fans out over a dict's keys; a key that is absent, or
    a segment below a value that is not a dict, resolves to ``_MISSING``.
    """
    matches: list[tuple[str, Any]] = [("", report)]
    for part in path.split("."):
        step = []
        for prefix, node in matches:
            is_dict = isinstance(node, dict)
            for key in node if part == "*" and is_dict else (part,):
                value = node.get(key, _MISSING) if is_dict else _MISSING
                step.append((f"{prefix}.{key}" if prefix else str(key), value))
        matches = step
    return matches


def validate_report(report: dict, sections: Sequence[str] | None = None) -> None:
    """Check a benchmark report against the rule table (``_RULES``).

    ``sections`` limits the check to the rows under those top-level keys
    (``--serving-only`` passes ``("serving",)``).

    Raises:
        ValueError: naming every failing row by its resolved path.
    """
    problems = []
    for path, check, requirement in _RULES:
        if sections is not None and path.split(".", 1)[0] not in sections:
            continue
        for resolved, value in _resolve(report, path):
            try:
                ok = value is not _MISSING and bool(check(value))
            except (KeyError, TypeError):
                ok = False
            if not ok:
                got = "missing" if value is _MISSING else f"got {reprlib.repr(value)}"
                problems.append(f"{resolved}: {requirement} ({got})")
    if problems:
        raise ValueError("invalid benchmark report:\n  " + "\n  ".join(problems))


def compare_to_baseline(
    report: dict, baseline: dict, threshold: float = _REGRESSION_THRESHOLD
) -> list[str]:
    """Diff a fresh report against a committed baseline.

    Returns one human-readable message per regression — training
    throughput (buckets/sec) dropping by more than ``threshold``, or the
    single-query recommend p95 growing by more than ``threshold``; an
    empty list means the report is at least as good as the baseline
    within the tolerance.

    Raises:
        ValueError: when the two reports are not like-for-like (different
            schema version, mode, or training backend) — a comparison
            would be meaningless, which is distinct from a pass.
    """
    for key in ("schema_version", "quick", "backend"):
        if report.get(key) != baseline.get(key):
            raise ValueError(
                f"baseline not comparable: {key} differs "
                f"({baseline.get(key)!r} -> {report.get(key)!r})"
            )

    regressions: list[str] = []
    old_rate = baseline["training"]["buckets_per_second"]
    new_rate = report["training"]["buckets_per_second"]
    if old_rate > 0 and new_rate < (1.0 - threshold) * old_rate:
        regressions.append(
            f"training throughput regressed >{threshold:.0%}: "
            f"{old_rate:.1f} -> {new_rate:.1f} buckets/sec"
        )
    old_p95 = baseline["recommend"]["p95_seconds"]
    new_p95 = report["recommend"]["p95_seconds"]
    if (
        old_p95 > 0
        and new_p95 > (1.0 + threshold) * old_p95
        and new_p95 - old_p95 > _P95_SLACK_SECONDS
    ):
        regressions.append(
            f"recommend p95 regressed >{threshold:.0%}: "
            f"{old_p95 * 1e3:.2f}ms -> {new_p95 * 1e3:.2f}ms"
        )
    return regressions


def _default_baseline() -> Path | None:
    """The committed repo-root ``BENCH_plp.json``, when running from a
    source checkout (``src/repro/bench.py`` -> two parents up)."""
    candidate = Path(__file__).resolve().parents[2] / "BENCH_plp.json"
    return candidate if candidate.is_file() else None


def _print_serving_summary(serving: dict) -> None:
    baseline = serving["baseline"]
    sustained = serving["sustained"]
    overload = serving["overload"]
    ann = serving["ann"]
    print(
        f"serving baseline: {baseline['req_per_s']:.0f} req/s serial "
        f"(p50={baseline['p50_seconds'] * 1e3:.2f}ms "
        f"p95={baseline['p95_seconds'] * 1e3:.2f}ms)"
    )
    print(
        f"serving sustained[{sustained['clients']} clients]: "
        f"{sustained['req_per_s']:.0f} req/s "
        f"({sustained['speedup_vs_baseline']:.1f}x baseline, "
        f"p50={sustained['p50_seconds'] * 1e3:.2f}ms "
        f"p95={sustained['p95_seconds'] * 1e3:.2f}ms, "
        f"shed rate {sustained['shed_rate']:.1%})"
    )
    print(
        f"serving overload: {overload['shed']}/{overload['requests']} shed "
        f"(Retry-After present={overload['retry_after_present']}, "
        f"all responded={overload['all_responded']})"
    )
    print(
        f"serving ann: recall@{ann['top_k']}={ann['recall']:.3f} "
        f"({ann['num_clusters']} clusters, nprobe={ann['nprobe']}, "
        f"L={ann['num_locations']})"
    )


def _write_report(path: str, report: dict) -> None:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def run_from_args(args: argparse.Namespace) -> int:
    """Execute ``repro bench`` from its parsed arguments."""
    if args.serving_only:
        serving = measure_serving(seed=args.seed)
        report = {"schema_version": SCHEMA_VERSION, "serving": serving}
        validate_report(report, sections=("serving",))
        _write_report(args.out, report)
        _print_serving_summary(serving)
        return 0

    if args.out_of_core:
        report = run_out_of_core(
            users=args.ooc_users,
            rounds=args.ooc_rounds,
            workers=args.ooc_workers,
            rss_cap_mb=args.rss_cap_mb,
            seed=args.seed,
        )
        _write_report(args.out, report)
        section = report["out_of_core"]
        print(
            f"out-of-core: {section['num_users']} users / "
            f"{section['num_checkins']} check-ins in "
            f"{section['num_shards']} shards "
            f"({section['store_bytes'] / 1e6:.1f} MB on disk, "
            f"built in {section['build_seconds']:.1f}s)"
        )
        print(
            f"  {section['rounds']} rounds with {section['workers']} workers "
            f"in {section['train_seconds']:.1f}s "
            f"({section['buckets_per_second']:.1f} buckets/s)"
        )
        peak = section["peak_rss_bytes"]
        if peak is not None:
            print(f"  peak RSS {peak / (1024 * 1024):.0f} MiB")
        if section["under_cap"] is False:
            print(
                f"RSS CAP EXCEEDED: peak {peak / (1024 * 1024):.0f} MiB > "
                f"cap {section['rss_cap_mb']:.0f} MiB"
            )
            return 4
        return 0

    report = run_benchmark(
        quick=args.quick, seed=args.seed, backend=args.backend
    )
    _write_report(args.out, report)
    training = report["training"]
    print(
        f"training: {training['steps']} steps in "
        f"{training['total_seconds']:.2f}s "
        f"({training['buckets_per_second']:.1f} buckets/s, "
        f"backend={report['backend']})"
    )
    for stage, aggregate in training["stage_seconds"].items():
        print(f"  {stage:<12} {aggregate['total_seconds']:.4f}s total")
    kernels = report["kernels"]
    for backend, seconds in kernels["local_train_seconds"].items():
        speedup = kernels["speedup_vs_reference"].get(backend)
        suffix = f" ({speedup:.2f}x vs reference)" if speedup else ""
        print(f"kernel local_train[{backend}]: {seconds:.3f}s{suffix}")
    sharded = report["sharded"]
    cores = sharded.get("available_cores", "?")
    for count, entry in sharded["workers"].items():
        print(
            f"sharded[{count} workers, {cores} cores]: "
            f"{entry['buckets_per_second']:.1f} "
            f"buckets/s ({entry['speedup_vs_serial']:.2f}x vs serial, "
            f"identical ledger={sharded['ledger_identical']})"
        )
    _print_serving_summary(report["serving"])
    sweep = report["sweep"]
    print(
        f"sweep[{sweep['workers']} workers]: {sweep['runs']} runs in "
        f"{sweep['fresh_seconds']:.1f}s ({sweep['runs_per_second']:.2f} runs/s); "
        f"resume skipped {sweep['resume_skipped']}/{sweep['runs']} in "
        f"{sweep['resume_seconds']:.2f}s "
        f"({sweep['resume_overhead_ratio']:.1%} of fresh)"
    )
    print(
        f"recommend: p50={report['recommend']['p50_seconds'] * 1e3:.2f}ms "
        f"p95={report['recommend']['p95_seconds'] * 1e3:.2f}ms"
    )
    print(f"evaluation: HR {report['evaluation']['hit_rate']}")

    baseline_path: Path | None
    if args.baseline is None:
        baseline_path = _default_baseline()
    elif str(args.baseline).lower() == "none":
        baseline_path = None
    else:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"error: baseline not found: {baseline_path}")
            return 2
    if baseline_path is None:
        print("baseline: no baseline report; comparison skipped")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    try:
        regressions = compare_to_baseline(report, baseline)
    except ValueError as error:
        print(f"baseline: comparison skipped ({error})")
        return 0
    if regressions:
        for message in regressions:
            print(f"REGRESSION vs {baseline_path}: {message}")
        return 3
    print(f"baseline: ok (within {_REGRESSION_THRESHOLD:.0%} of {baseline_path})")
    return 0
