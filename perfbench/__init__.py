"""The repository benchmark: seeded workloads, output checks and span tracing.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout; see ``perfbench/run.py``.
"""
