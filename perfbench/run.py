"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` from an
untraced run; ``--trace 1`` prints every per-layer metric from a run with
the span recorder on (plus the tracing overhead against an untraced run in
the same process). Every workload prints every metric of its mode; what a
metric measures on each workload, the workload sizes, the open-loop rate
ladder, the latency limit and the map from each per-layer metric to the
end-to-end metric it should move are in ``perfbench/spec.json``.

The program under test is imported from ``src/`` of the current directory;
without it the script exits with code 2 before measuring anything. Inputs
are generated under ``.perfbench/`` and removed at exit; traced runs leave
their spans there as ``trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def _parse(argv: list[str]) -> argparse.Namespace:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.spec = spec
    return args


def manifest_metrics(trace: bool) -> set[str] | None:
    """Metric names ``BENCHMARK.json`` lists for this mode (None if absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    manifest = json.loads(path.read_text())
    return {entry["name"] for entry in manifest["per_layer" if trace else "end_to_end"]}


def _exit_on_sigterm(signum: int, frame) -> None:
    # SystemExit unwinds the workload's finally blocks, which stop the
    # server and the sharded workers before the process ends.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A process started in the background may inherit SIGINT ignored, and
    # would pass that on to the server, which then could not be stopped
    # with it; a handler is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {source}", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy loads and inherited by
    # the sharded workers and the server: on a host with few cores, BLAS
    # threads that spin-wait for each other turn any other load on the host
    # into run-to-run noise, and the sharded workers would oversubscribe
    # the cores.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(source))
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

    from perfbench.common import available_cores, emit

    workload = args.spec["workloads"][args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if workload["kind"] == "train":
            from perfbench import train as module
        else:
            from perfbench import serve as module
        tally, metrics, detail = module.run(
            args.workload, workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = manifest_metrics(bool(args.trace))
    if expected is not None and set(metrics) != expected:
        print(
            f"error: metrics do not match BENCHMARK.json: missing "
            f"{sorted(expected - set(metrics))}, unexpected {sorted(set(metrics) - expected)}",
            file=sys.stderr,
        )
        return 3
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        available_cores=available_cores(),
    )
    emit(tally, metrics, detail)
    failed = sorted(name for name, ok in tally.checks.items() if not ok)
    if failed:
        print(f"error: output checks failed: {', '.join(failed)}", file=sys.stderr)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
