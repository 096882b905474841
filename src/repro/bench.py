"""End-to-end observability benchmark: train -> evaluate -> recommend.

Runs the full pipeline on the synthetic Foursquare-Tokyo workload with an
:class:`repro.Observability` bundle attached and writes one JSON report
(``BENCH_plp.json``) with:

- per-stage step time (sample/group/local_train/aggregate/noise/apply/
  account) from the stage profiler,
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

The report is schema-validated (:func:`validate_report`) before writing.
The validator holds no timing floor beyond the sharded executor's 0.5x
overhead bound; the near-linear scaling floor is a test
(``tests/test_run_bench.py::TestQuickRun::test_sharded_scales_with_cores``).
When a committed baseline report exists (``BENCH_plp.json`` at the repo
root, or ``--baseline``), the fresh report is diffed against it and a
>25% regression in training throughput (buckets/sec) or recommend p95
fails the run with exit code 3 (:func:`compare_to_baseline`).

Run it through the CLI (no ``PYTHONPATH`` gymnastics needed)::

    repro bench --quick --out BENCH_plp.json

or as the historical script, which forwards here::

    PYTHONPATH=src python benchmarks/run_bench.py --quick --out BENCH_plp.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.engine.blas import available_cores
from repro.core.engine.engine import STAGE_NAMES
from repro.observability import peak_rss_bytes

__all__ = [
    "SCHEMA_VERSION",
    "STAGE_NAMES",
    "add_bench_arguments",
    "compare_to_baseline",
    "main",
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
    data_seed=11,
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


def _build_workload(mode: dict, seed: int):
    config = repro.SyntheticConfig(
        num_users=mode["num_users"],
        num_locations=mode["num_locations"],
        num_clusters=mode["num_clusters"],
    )
    dataset = repro.CheckinDataset(
        repro.paper_preprocessing(repro.generate_checkins(config, rng=seed))
    )
    holdout_size = max(5, mode["num_users"] // 10)
    return repro.holdout_users_split(dataset, holdout_size, rng=seed)


def _local_train_seconds(dataset, backend: str, seed: int) -> float:
    """One instrumented training run; returns the ``local_train`` total."""
    obs = repro.with_observability()
    config = repro.PLPConfig(
        max_steps=_KERNEL_WORKLOAD["max_steps"], backend=backend
    )
    repro.train(config, dataset, rng=seed, with_observability=obs)
    seconds = obs.profiler.summary()["engine.stage.local_train"]["total_seconds"]
    obs.close()
    return float(seconds)


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
    raw = repro.generate_checkins(
        repro.SyntheticConfig(
            num_users=spec["num_users"],
            num_locations=spec["num_locations"],
            mean_checkins_per_user=spec["mean_checkins_per_user"],
        ),
        rng=spec["data_seed"],
    )
    dataset = repro.CheckinDataset(repro.paper_preprocessing(raw))

    _local_train_seconds(dataset, "fast", seed)  # warm caches/allocator
    best: dict[str, float] = {}
    for _ in range(max(1, repeats)):
        for backend in ("fast", "reference"):
            seconds = _local_train_seconds(dataset, backend, seed)
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
    the same seed and time the engine's ``local_train`` stage. One serial
    warm-up run goes first and is not timed. Then the executors run
    interleaved — serial, then each worker count, the workload's
    ``repeats`` times — and the best run per executor is kept, as in
    :func:`measure_kernel_speedup`: a cold first run or a noisy-neighbor
    blip cannot decide the ratio. Besides the timings, the section
    records that the privacy ledger and the embeddings came out
    **bit-identical** across executors and repeats — the
    executor-equivalence contract, measured end to end.
    """
    spec = _SHARDED_WORKLOAD
    dataset = repro.CheckinDataset(
        repro.paper_preprocessing(
            repro.generate_checkins(
                repro.SyntheticConfig(
                    num_users=spec["num_users"],
                    num_locations=spec["num_locations"],
                    num_clusters=spec["num_clusters"],
                    mean_checkins_per_user=spec["mean_checkins_per_user"],
                ),
                rng=spec["data_seed"],
            )
        )
    )
    config = repro.PLPConfig(
        max_steps=spec["max_steps"],
        grouping_factor=spec["grouping_factor"],
        sampling_probability=spec["sampling_probability"],
        backend=spec["backend"],
    )

    def run(executor: str, workers: int | None):
        # Time the local_train stage — the part the executor owns. The
        # other stages (sample/aggregate/apply/...) are single-writer by
        # design and identical across executors.
        obs = repro.with_observability()
        model = repro.train(
            config,
            dataset,
            rng=seed,
            executor=executor,
            workers=workers,
            with_observability=obs,
        )
        summary = obs.profiler.summary()
        seconds = float(summary["engine.stage.local_train"]["total_seconds"])
        obs.close()
        buckets = sum(record.num_buckets for record in model.history)
        return model, seconds, buckets

    reference, _, buckets = run("serial", None)  # warm-up, not timed
    runs = [("serial", None)] + [("sharded", count) for count in worker_counts]
    best: dict[int | None, float] = {}
    ledger_identical = True
    embeddings_identical = True
    for _ in range(spec["repeats"]):
        for executor, workers in runs:
            model, seconds, run_buckets = run(executor, workers)
            best[workers] = min(best.get(workers, float("inf")), seconds)
            ledger_identical &= (
                model.privacy["epsilon"] == reference.privacy["epsilon"]
                and run_buckets == buckets
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
            "buckets_per_second": buckets / serial_seconds
            if serial_seconds
            else 0.0,
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
            "synthetic": {
                "num_users": spec["num_users"],
                "num_locations": spec["num_locations"],
                "num_clusters": spec["num_clusters"],
                "mean_checkins_per_user": spec["mean_checkins_per_user"],
            },
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
    import threading
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
    trajectories = repro.sessionize_dataset(holdout)
    queries = [
        list(trajectory.locations[:-1])
        for trajectory in trajectories
        if len(trajectory) >= 2
    ] or [[0]]
    bodies = [
        json.dumps({"v": 1, "recent": query, "top_k": 10}).encode("utf-8")
        for query in queries
    ]
    headers = {"Content-Type": "application/json"}

    def post(conn: HTTPConnection, body: bytes):
        started = time.perf_counter()
        conn.request("POST", "/recommend", body, headers)
        response = conn.getresponse()
        response.read()
        return (
            response.status,
            response.getheader("Retry-After"),
            time.perf_counter() - started,
        )

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
            port = server.port
            conn = HTTPConnection("127.0.0.1", port)
            post(conn, bodies[0])  # warm the connection and the caches
            baseline_latencies: list[float] = []
            started = time.perf_counter()
            for i in range(spec["baseline_requests"]):
                _, _, latency = post(conn, bodies[i % len(bodies)])
                baseline_latencies.append(latency)
            baseline_wall = time.perf_counter() - started
            conn.close()

            clients = spec["clients"]
            per_client = spec["sustained_requests"] // clients
            results: list[list[tuple]] = [[] for _ in range(clients)]
            barrier = threading.Barrier(clients + 1)

            def run_client(idx: int) -> None:
                client_conn = HTTPConnection("127.0.0.1", port)
                try:
                    post(client_conn, bodies[0])  # connect before the gun
                    barrier.wait()
                    for j in range(per_client):
                        body = bodies[(idx + j) % len(bodies)]
                        results[idx].append(post(client_conn, body))
                finally:
                    client_conn.close()

            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            sustained_wall = time.perf_counter() - started
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
        burst: list = [None] * burst_size
        with BackgroundServer(overload_service) as server:
            burst_port = server.port
            burst_barrier = threading.Barrier(burst_size + 1)

            def run_burst(idx: int) -> None:
                burst_conn = HTTPConnection("127.0.0.1", burst_port)
                try:
                    burst_barrier.wait()
                    burst[idx] = post(burst_conn, bodies[idx % len(bodies)])
                finally:
                    burst_conn.close()

            burst_threads = [
                threading.Thread(target=run_burst, args=(i,))
                for i in range(burst_size)
            ]
            for thread in burst_threads:
                thread.start()
            burst_barrier.wait()
            for thread in burst_threads:
                thread.join()
        overload_service.close()

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
                "buckets_per_second": buckets / train_seconds
                if train_seconds
                else 0.0,
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
        epsilon=2.0,
        max_steps=mode["max_steps"],
        grouping_factor=4,
        sampling_probability=0.2,
        backend=backend,
    )

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
    trajectories = repro.sessionize_dataset(holdout)
    queries = [
        list(trajectory.locations[:-1])
        for trajectory in trajectories
        if len(trajectory) >= 2
    ]
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

    profile = obs.profiler.summary()
    stage_seconds = {
        stage: profile.get(
            f"engine.stage.{stage}",
            {"count": 0, "total_seconds": 0.0, "mean_seconds": 0.0,
             "max_seconds": 0.0},
        )
        for stage in STAGE_NAMES
    }
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
            "stage_seconds": stage_seconds,
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


def validate_report(report: dict) -> None:
    """Schema-check a benchmark report; raises ``ValueError`` on mismatch.

    Hand-rolled (no jsonschema dependency): checks the key set, value
    types, the full stage breakdown, the kernel-comparison section, and
    basic sanity (p50 <= p95, non-negative counters). Of the sharded
    section it demands ledger and embeddings identity and the 0.5x
    overhead floor, but not scaling: a report records real scaling or
    its absence, and the near-linear scaling floor lives in
    ``tests/test_run_bench.py`` (``test_sharded_scales_with_cores``).
    """
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    top = {
        "schema_version": int, "quick": bool, "seed": int, "backend": str,
        "generated_unix": float, "workload": dict, "training": dict,
        "kernels": dict, "sharded": dict, "serving": dict, "sweep": dict,
        "evaluation": dict, "recommend": dict,
    }
    for key, kind in top.items():
        expect(isinstance(report.get(key), kind), f"{key}: expected {kind.__name__}")
    expect("peak_rss_bytes" in report, "peak_rss_bytes: missing")
    rss = report.get("peak_rss_bytes")
    expect(rss is None or (isinstance(rss, int) and rss > 0),
           "peak_rss_bytes: expected positive int or null")
    expect(report.get("schema_version") == SCHEMA_VERSION,
           f"schema_version: expected {SCHEMA_VERSION}")

    training = report.get("training") or {}
    for key in ("steps", "buckets_total"):
        expect(isinstance(training.get(key), int) and training.get(key, -1) >= 0,
               f"training.{key}: expected non-negative int")
    for key in ("total_seconds", "buckets_per_second"):
        expect(isinstance(training.get(key), float) and training.get(key, -1.0) >= 0,
               f"training.{key}: expected non-negative float")
    stages = training.get("stage_seconds") or {}
    expect(set(stages) == set(STAGE_NAMES),
           f"training.stage_seconds: expected stages {sorted(STAGE_NAMES)}")
    for stage, aggregate in stages.items():
        for key in ("count", "total_seconds", "mean_seconds", "max_seconds"):
            expect(isinstance(aggregate.get(key), (int, float)),
                   f"training.stage_seconds.{stage}.{key}: expected number")

    kernels = report.get("kernels") or {}
    timings = kernels.get("local_train_seconds")
    expect(isinstance(timings, dict) and "reference" in (timings or {}),
           "kernels.local_train_seconds: expected dict with 'reference'")
    for backend, seconds in (timings or {}).items():
        expect(isinstance(seconds, float) and seconds > 0,
               f"kernels.local_train_seconds.{backend}: expected positive float")
    speedups = kernels.get("speedup_vs_reference")
    expect(isinstance(speedups, dict) and "fast" in (speedups or {}),
           "kernels.speedup_vs_reference: expected dict with 'fast'")
    for backend, ratio in (speedups or {}).items():
        expect(isinstance(ratio, float) and ratio > 0,
               f"kernels.speedup_vs_reference.{backend}: expected positive float")

    sharded = report.get("sharded") or {}
    serial_section = sharded.get("serial") or {}
    expect(
        isinstance(serial_section.get("buckets_per_second"), float)
        and serial_section.get("buckets_per_second", -1.0) > 0,
        "sharded.serial.buckets_per_second: expected positive float",
    )
    worker_sections = sharded.get("workers")
    expect(isinstance(worker_sections, dict) and worker_sections,
           "sharded.workers: expected non-empty dict")
    for count, entry in (worker_sections or {}).items():
        for key in ("seconds", "buckets_per_second", "speedup_vs_serial"):
            expect(
                isinstance(entry.get(key), float) and entry.get(key, -1.0) > 0,
                f"sharded.workers.{count}.{key}: expected positive float",
            )
        speedup = entry.get("speedup_vs_serial", 0.0)
        # Shipping overhead must stay bounded everywhere. Scaling itself
        # is a timing floor, gated by test_sharded_scales_with_cores.
        expect(
            speedup >= 0.5,
            f"sharded.workers.{count}: speedup {speedup:.2f}x vs serial is "
            "below the 0.5x overhead floor",
        )
    expect(sharded.get("ledger_identical") is True,
           "sharded.ledger_identical: executors must produce one ledger")
    expect(sharded.get("embeddings_identical") is True,
           "sharded.embeddings_identical: executors must produce one model")

    serving = report.get("serving") or {}
    _validate_serving_section(serving, expect)

    sweep = report.get("sweep") or {}
    _validate_sweep_section(sweep, expect)

    evaluation = report.get("evaluation") or {}
    expect(isinstance(evaluation.get("hit_rate"), dict) and evaluation.get("hit_rate"),
           "evaluation.hit_rate: expected non-empty dict")
    for key in ("query_seconds_p50", "query_seconds_p95"):
        expect(isinstance(evaluation.get(key), float),
               f"evaluation.{key}: expected float")

    recommend = report.get("recommend") or {}
    expect(isinstance(recommend.get("queries"), int) and recommend.get("queries", 0) > 0,
           "recommend.queries: expected positive int")
    p50, p95 = recommend.get("p50_seconds"), recommend.get("p95_seconds")
    expect(isinstance(p50, float) and isinstance(p95, float) and p50 <= p95,
           "recommend: expected float p50_seconds <= p95_seconds")

    if problems:
        raise ValueError(
            "invalid benchmark report:\n  " + "\n  ".join(problems)
        )


def _validate_serving_section(serving: dict, expect) -> None:
    """Schema/sanity checks for the serving section (helper of
    :func:`validate_report`; also applied to ``--serving-only`` output).

    Structural facts and deterministic contracts are hard-gated (shed
    accounting, ``Retry-After`` on overload, the 0.95 ANN recall floor);
    the throughput ratio only has a >1x sanity floor here — the >=10x
    acceptance gate runs in CI where the load is controlled.
    """
    for phase in ("baseline", "sustained"):
        entry = serving.get(phase) or {}
        expect(
            isinstance(entry.get("req_per_s"), float)
            and entry.get("req_per_s", -1.0) > 0,
            f"serving.{phase}.req_per_s: expected positive float",
        )
        p50, p95 = entry.get("p50_seconds"), entry.get("p95_seconds")
        expect(
            isinstance(p50, float) and isinstance(p95, float) and 0 <= p50 <= p95,
            f"serving.{phase}: expected float p50_seconds <= p95_seconds",
        )
    sustained = serving.get("sustained") or {}
    expect(
        sustained.get("all_responded") is True,
        "serving.sustained.all_responded: silent request drops detected",
    )
    shed_rate = sustained.get("shed_rate")
    expect(
        isinstance(shed_rate, float) and 0.0 <= shed_rate <= 1.0,
        "serving.sustained.shed_rate: expected float in [0, 1]",
    )
    speedup = sustained.get("speedup_vs_baseline")
    expect(
        isinstance(speedup, float) and speedup > 1.0,
        "serving.sustained.speedup_vs_baseline: batched throughput must "
        "beat the serial per-request baseline",
    )
    overload = serving.get("overload") or {}
    expect(
        isinstance(overload.get("shed"), int) and overload.get("shed", 0) > 0,
        "serving.overload.shed: the overload burst must shed load",
    )
    expect(
        overload.get("retry_after_present") is True,
        "serving.overload.retry_after_present: 503 responses must carry "
        "Retry-After",
    )
    expect(
        overload.get("all_responded") is True,
        "serving.overload.all_responded: silent request drops detected",
    )
    ann = serving.get("ann") or {}
    recall = ann.get("recall")
    expect(
        isinstance(recall, float) and 0.0 <= recall <= 1.0,
        "serving.ann.recall: expected float in [0, 1]",
    )
    expect(
        isinstance(recall, float) and recall >= 0.95,
        "serving.ann.recall: below the 0.95 recall@10 contract",
    )


def _validate_sweep_section(sweep: dict, expect) -> None:
    """Schema/sanity checks for the sweep-orchestrator section (helper of
    :func:`validate_report`).

    Gates the orchestrator's perf contract: the fixed 8-run grid must
    complete without failures, parallel dispatch must make forward
    progress (positive runs/sec), and a resume over the completed sweep
    must skip every run while costing a small fraction of the fresh
    pass.
    """
    expect(
        isinstance(sweep.get("runs"), int) and sweep.get("runs", 0) >= 8,
        "sweep.runs: expected the >=8-run benchmark grid",
    )
    expect(
        isinstance(sweep.get("workers"), int) and sweep.get("workers", 0) >= 2,
        "sweep.workers: expected a parallel (>=2 worker) dispatch",
    )
    expect(
        sweep.get("executed") == sweep.get("runs"),
        "sweep.executed: the fresh pass must execute every run",
    )
    expect(sweep.get("failed") == 0, "sweep.failed: expected zero failed runs")
    for key in ("fresh_seconds", "runs_per_second", "resume_seconds"):
        expect(
            isinstance(sweep.get(key), float) and sweep.get(key, -1.0) > 0,
            f"sweep.{key}: expected positive float",
        )
    expect(
        sweep.get("resume_skipped") == sweep.get("runs"),
        "sweep.resume_skipped: resume must skip every completed run",
    )
    expect(
        sweep.get("resume_executed") == 0,
        "sweep.resume_executed: resume must re-execute nothing",
    )
    ratio = sweep.get("resume_overhead_ratio")
    expect(
        isinstance(ratio, float) and 0.0 <= ratio < 0.5,
        "sweep.resume_overhead_ratio: resume must cost <50% of a fresh run",
    )


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


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the benchmark flags (shared by the CLI and the script)."""
    parser.add_argument(
        "--quick", action="store_true",
        help="seconds-scale smoke workload (CI); default is the full bench",
    )
    parser.add_argument("--out", default="BENCH_plp.json", help="report path")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default="reference",
        help="compute backend for the pipeline training run (the kernel "
        "comparison always times both backends)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report to diff against (default: the committed "
        "repo-root BENCH_plp.json; 'none' disables the check)",
    )
    parser.add_argument(
        "--serving-only",
        action="store_true",
        help="instead of the pipeline benchmark: run only the serving "
        "section (asyncio server throughput, overload shedding, ANN "
        "recall) and write a serving-only report",
    )
    parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="instead of the pipeline benchmark: materialize a "
        "disk-backed corpus and train on it through the sharded "
        "executor, reporting throughput and peak RSS",
    )
    parser.add_argument(
        "--ooc-users", type=int, default=20_000,
        help="corpus size (users) for --out-of-core",
    )
    parser.add_argument(
        "--ooc-rounds", type=int, default=2,
        help="training rounds for --out-of-core",
    )
    parser.add_argument(
        "--ooc-workers", type=int, default=2,
        help="sharded-executor workers for --out-of-core",
    )
    parser.add_argument(
        "--rss-cap-mb", type=float, default=None,
        help="with --out-of-core: fail (exit 4) when the process peak "
        "RSS exceeds this many MiB",
    )


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


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the benchmark from parsed arguments (CLI entry point)."""
    if getattr(args, "serving_only", False):
        serving = measure_serving(seed=args.seed)
        problems: list[str] = []
        _validate_serving_section(
            serving,
            lambda ok, message: None if ok else problems.append(message),
        )
        if problems:
            raise ValueError(
                "invalid serving benchmark:\n  " + "\n  ".join(problems)
            )
        report = {"schema_version": SCHEMA_VERSION, "serving": serving}
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        _print_serving_summary(serving)
        return 0

    if getattr(args, "out_of_core", False):
        report = run_out_of_core(
            users=args.ooc_users,
            rounds=args.ooc_rounds,
            workers=args.ooc_workers,
            rss_cap_mb=args.rss_cap_mb,
            seed=args.seed,
        )
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        section = report["out_of_core"]
        print(f"wrote {out}")
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
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    training = report["training"]
    print(f"wrote {out}")
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
