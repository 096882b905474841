"""Figure 9: running-time improvement factor of PLP over DP-SGD vs lambda.

"Linearly scaling the grouping factor has two opposing effects: fewer
buckets implies that equally few bucket gradients need to be computed and
averaged; on the other hand, as each bucket gets assigned more users, it
takes longer to compute each bucket gradient." The per-bucket fixed cost
(model snapshot/delta/clip) dominates at small lambda, so grouping speeds
training up — more at higher sampling rates where more users are sampled
per step.

Runs a fixed number of steps per configuration (the ratio of *per-step*
times is what the figure shape is about; total steps at equal budget are
identical across lambda). The runtime comparator is per-user local SGD
(PLP at lambda = 1): the paper's runtime argument is about amortizing the
per-bucket fixed cost over grouped users, so both sides must do the same
kind of local work. (The *accuracy* benches use the single-gradient
DP-SGD baseline, which does strictly less work per step.)
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import write_table
from repro import PrivateLocationPredictor

_LAMBDAS = {
    "smoke": [2, 4],
    "default": [2, 3, 4, 5, 6],
    "paper": [2, 3, 4, 5, 6],
}
_QS = {"smoke": [0.1], "default": [0.06, 0.10], "paper": [0.06, 0.10]}


def test_fig9_runtime_factor(benchmark, workload):
    lambdas = _LAMBDAS[workload.scale.name]
    qs = _QS[workload.scale.name]
    steps = 10 if workload.scale.name == "smoke" else 25

    def timed_run(config) -> float:
        trainer = PrivateLocationPredictor(config, rng=3)
        started = time.perf_counter()
        trainer.fit(workload.train)
        return time.perf_counter() - started

    def sweep():
        rows = []
        for q in qs:
            base = workload.plp_config(
                sampling_probability=q, epsilon=1e6, max_steps=steps
            )
            # Per-user local SGD (lambda = 1) is the runtime comparator.
            ungrouped_seconds = timed_run(base.with_overrides(grouping_factor=1))
            for lam in lambdas:
                plp_seconds = timed_run(base.with_overrides(grouping_factor=lam))
                rows.append(
                    [q, lam, ungrouped_seconds / plp_seconds, plp_seconds,
                     ungrouped_seconds]
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "fig9_runtime",
        f"Figure 9: running-time factor improvement of grouped PLP over "
        f"ungrouped per-user training ({steps} steps each, "
        f"scale={workload.scale.name})",
        ["q", "lambda", "speedup_factor", "plp_s", "ungrouped_s"],
        rows,
    )
    if workload.scale.name != "smoke":
        # Grouped PLP should be faster than per-user training on average
        # (per-row timings are sensitive to background load).
        mean_speedup = sum(row[2] for row in rows) / len(rows)
        assert mean_speedup > 1.0


def test_fig9_parallel_executor_speedup(benchmark, workload):
    """Serial vs process-parallel bucket execution on the fig9 config.

    Both runs compute identical results (executor choice never changes the
    trained model); the table reports the mean per-step wall time of each
    backend. The >= 1.5x assertion needs real cores, so it is skipped on
    single-core runners where the process pool only adds pickling overhead.
    """
    steps = 10 if workload.scale.name == "smoke" else 25
    # Ungrouped high-q config: many buckets per step, the regime parallel
    # bucket execution is built for.
    config = workload.plp_config(
        sampling_probability=0.10, grouping_factor=1, epsilon=1e6, max_steps=steps
    )

    def mean_step_seconds(executor: str, workers: int | None = None) -> float:
        trainer = PrivateLocationPredictor(
            config, rng=3, executor=executor, workers=workers
        )
        history = trainer.fit(workload.train)
        return sum(record.wall_time_seconds for record in history) / len(history)

    def compare():
        serial = mean_step_seconds("serial")
        parallel = mean_step_seconds("sharded")
        return [[steps, serial, parallel, serial / parallel]]

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    write_table(
        "fig9_parallel_speedup",
        f"Process-pool bucket executor: mean per-step wall time vs serial "
        f"(lambda=1, q=0.10, {steps} steps, scale={workload.scale.name}, "
        f"cpus={os.cpu_count()})",
        ["steps", "serial_step_s", "parallel_step_s", "speedup"],
        rows,
    )
    if workload.scale.name != "smoke" and (os.cpu_count() or 1) >= 2:
        assert rows[0][3] >= 1.5
