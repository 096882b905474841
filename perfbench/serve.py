"""The serving workloads: ``serve-openloop`` and ``serve-http``.

``serve-openloop`` builds an in-process :class:`RecommendService` and one
generator (this thread) calls ``submit_future`` on a fixed arrival
schedule: a low and a high fixed rate, then independent searches of the
rate ladder for the highest rate that meets the latency limit, whose
answers are averaged. Every request is timed
from the moment it was due, so a generator stall is charged to the
requests it delayed, and the generator's own lateness is reported.

``serve-http`` launches ``repro serve`` in a subprocess and drives it in a
closed loop from one asyncio thread over a fixed number of keep-alive
connections, posting wire-v1 JSON.

Both check the served answers: every answer carries ``top_k`` rows in the
wire-v1 shape, and a fixed sample matches the offline
``TrainedModel.recommend_batch(..., mode="fast")`` on the same artifact.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import repro
from repro.exceptions import OverloadedError
from repro.serving.api import RecommendRequest, RecommendResponse, ServingConfig
from repro.serving.service import RecommendService

from perfbench import inputs
from perfbench.common import (
    Tally,
    available_cores,
    median,
    metric,
    peak_rss_mb,
    percentile,
)
from perfbench.spans import Span, SpanRecorder, read_spans

TOP_K = 10
#: How many served answers are compared against the offline model.
SAMPLE = 64


# -- output checks -------------------------------------------------------


def same_top_k(
    served: Sequence[Sequence], offline: Sequence[Sequence], rtol: float = 1e-5
) -> bool:
    """Whether served ``(location, score)`` rows match the offline rows.

    Location ids must be identical and in the same order; scores may
    differ by float32 rounding.
    """
    if len(served) != len(offline):
        return False
    for got, want in zip(served, offline):
        if [int(loc) for loc, _ in got] != [int(loc) for loc, _ in want]:
            return False
        for (_, a), (_, b) in zip(got, want):
            if not math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=rtol):
                return False
    return True


def wire_v1_rows(payload: Any, top_k: int) -> bool:
    """Whether a response body decodes as wire v1 with ``top_k`` rows."""
    try:
        response = RecommendResponse.from_dict(payload)
    except Exception:  # noqa: BLE001 - any decode failure is a failed check
        return False
    return response.v == 1 and len(response.recommendations) == top_k


def check_sample(
    tally: Tally,
    name: str,
    model: "repro.TrainedModel",
    queries: Sequence[tuple],
    served: Sequence[Sequence],
) -> None:
    offline = model.recommend_batch(list(queries), top_k=TOP_K, mode="fast")
    tally.check(name, bool(served) and same_top_k(served, offline))


# -- the rate ladder -------------------------------------------------------


def ladder(spec: dict) -> list[int]:
    start, stop, step = spec["ladder"]
    return list(range(start, stop + 1, step))


def search_ladder(
    rungs: Sequence[int],
    probe: Callable[[int], str],
    start: int,
    known: dict[int, str] | None = None,
    max_probes: int = 8,
) -> tuple[int | None, dict[int, str]]:
    """Highest rung that passes, probing few rungs.

    ``probe(rate)`` returns ``"pass"``, ``"fail"``, ``"transient"`` (missed
    the limit although the backlog did not grow: a stall, not a lack of
    capacity) or ``"flagged"`` (the generator fell behind; not scored).
    Passing is assumed monotone in the rate. The search gallops from the
    rung ``start``: one rung, then two, four, ... up while rungs pass (or
    down while they do not), then bisects the last step. A transient miss
    is probed once more and fails the rung only if it repeats; a flagged
    rung ends the upward search like a failure but is never scored.

    Returns ``(best passing rate or None, verdict per probed rate)``.
    """
    verdicts = dict(known or {})
    probes = 0

    def passes(index: int) -> bool:
        nonlocal probes
        rate = rungs[index]
        if rate not in verdicts:
            verdicts[rate] = probe(rate)
            probes += 1
            if verdicts[rate] == "transient" and probes < max_probes:
                verdicts[rate] = probe(rate)
                probes += 1
        return verdicts[rate] == "pass"

    # low: highest rung known to pass (-1: none); high: lowest known miss.
    low = max((i for i, r in enumerate(rungs) if verdicts.get(r) == "pass"), default=-1)
    high = len(rungs)
    first = min(range(len(rungs)), key=lambda i: abs(rungs[i] - start))
    step = 1
    if passes(first):
        low = max(low, first)
        while probes < max_probes and low + step < len(rungs):
            if not passes(low + step):
                high = low + step
                break
            low += step
            step *= 2
    else:
        high = first
        while probes < max_probes and high - step > max(low, -1):
            if passes(high - step):
                low = high - step
                break
            high -= step
            step *= 2
    while high - low > 1 and probes < max_probes:
        middle = (low + high) // 2
        if passes(middle):
            low = middle
        else:
            high = middle
    return (rungs[low] if low >= 0 else None), verdicts


# -- open loop -------------------------------------------------------------


class OpenLoop:
    """One generator sending requests on a fixed schedule."""

    def __init__(self, service: RecommendService, requests: list, spec: dict) -> None:
        self.service = service
        self.requests = requests
        self.limit_ms = spec["latency_limit_ms"]
        self.max_fail_frac = spec["max_fail_frac"]
        self.late_limit_ms = spec["generator_late_limit_ms"]
        self.max_backlog = spec["max_backlog"]
        self.cursor = 0
        self.captured: list[tuple[tuple, RecommendResponse]] = []
        self.well_formed = True

    def phase(self, rate: float, seconds: float, capture: int = 0) -> dict[str, Any]:
        """Send ``rate * seconds`` requests on schedule and wait for them.

        Returns the raw samples; :meth:`summarize` judges them.

        The batcher thread's completion callback only appends to a deque;
        this thread accounts each finished request through
        ``record_request``, as the asyncio front end does on its loop.
        """
        count = max(1, int(rate * seconds))
        interval = 1.0 / rate
        # Preallocated arrays, not lists of floats: the generator allocates
        # nothing per request that the garbage collector must later scan.
        due = np.zeros(count)
        sent = np.zeros(count)
        done = np.full(count, np.nan)
        failed = np.zeros(count, dtype=bool)
        finished: collections.deque = collections.deque()
        first = self.cursor
        service = self.service
        accounted = 0

        def account() -> None:
            nonlocal accounted
            while finished:
                index, when, response = finished.popleft()
                done[index] = when
                if isinstance(response, BaseException):
                    failed[index] = True
                    status = "shed" if isinstance(response, OverloadedError) else "error"
                else:
                    status = "ok"
                    if len(response.recommendations) != TOP_K or response.v != 1:
                        self.well_formed = False
                        failed[index] = True
                    if index < capture:
                        query = self.requests[(first + index) % len(self.requests)]
                        self.captured.append((query.recent, response))
                service.record_request(status, when - sent[index])
                accounted += 1

        def on_done(index: int, future) -> None:
            when = time.perf_counter()
            error = future.exception()
            finished.append((index, when, error if error is not None else future.result()))

        submitted = 0
        aborted = False
        in_flight: list[int] = []
        start = time.perf_counter() + 0.002
        for index in range(count):
            when = start + index * interval
            now = time.perf_counter()
            if when > now:
                time.sleep(when - now)
                now = time.perf_counter()
            due[index] = when
            sent[index] = now
            request = self.requests[(first + index) % len(self.requests)]
            try:
                future = service.submit_future(request)
            except OverloadedError as error:
                finished.append((index, now, error))
            else:
                future.add_done_callback(lambda f, i=index: on_done(i, f))
            submitted += 1
            account()
            in_flight.append(submitted - accounted)
            if in_flight[-1] > self.max_backlog:
                aborted = True  # stop before the bounded queue starts shedding
                break
        deadline = time.perf_counter() + 10.0
        while accounted < submitted and time.perf_counter() < deadline:
            time.sleep(0.0005)
            account()
        self.cursor += submitted
        tail = sorted(in_flight[-max(1, len(in_flight) // 10) :])
        due, sent, done = due[:submitted], sent[:submitted], done[:submitted]
        bad = failed[:submitted] | np.isnan(done)
        return {
            "rate": rate,
            "attempted": submitted,
            "failed": int(bad.sum()),
            # Answers per second from the first due time to the last answer.
            "answered": int((~bad).sum()),
            "span_s": float(np.nanmax(done) - due[0]) if (~bad).any() else math.inf,
            "latencies_ms": ((done - due)[~bad] * 1e3).tolist(),
            "late_ms": ((sent - due) * 1e3).tolist(),
            # The backlog grows when, over the last tenth of the schedule,
            # typically more requests are in flight than the limit lets
            # drain (a single stall at the end does not count).
            "backlog_grew": aborted
            or tail[len(tail) // 2] > rate * self.limit_ms / 1e3,
        }

    def summarize(self, parts: list[dict[str, Any]]) -> dict[str, Any]:
        """Pool the samples of one rate's phases and judge them."""
        latencies = [value for part in parts for value in part["latencies_ms"]]
        late = [value for part in parts for value in part["late_ms"]]
        result = {
            "rate": parts[0]["rate"],
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "achieved_rps": sum(part["answered"] for part in parts)
            / sum(part["span_s"] for part in parts),
            "p50_ms": percentile(latencies, 50) if latencies else math.inf,
            "p90_ms": percentile(latencies, 90) if latencies else math.inf,
            "late_mean_ms": sum(late) / len(late),
            "late_p90_ms": percentile(late, 90),
            "late_max_ms": max(late),
            "backlog_grew": any(part["backlog_grew"] for part in parts),
        }
        result["verdict"] = self.verdict(result)
        return result

    def verdict(self, result: dict[str, Any]) -> str:
        if result["late_p90_ms"] > self.late_limit_ms:
            return "flagged"
        if result["failed"] > self.max_fail_frac * result["attempted"]:
            return "fail"
        if result["backlog_grew"]:
            return "fail"
        return "pass" if result["p90_ms"] <= self.limit_ms else "transient"


def _service(path: str) -> RecommendService:
    return RecommendService.from_config(
        ServingConfig(artifacts=(("default", path),))
    )


def _openloop(spec: dict, path: str, requests: list, seconds: float, tally: Tally):
    """One open-loop measurement on a fresh service; returns its report."""
    service = _service(path)
    loop = OpenLoop(service, requests, spec)
    # The harness's long-lived objects (inputs, the service) leave the
    # cyclic collector's generations, so a collection mid-phase does not
    # rescan them; objects the service allocates while serving are still
    # collected as usual.
    gc.collect()
    gc.freeze()
    try:
        # Unscored warm-up at both fixed rates: the first second of load
        # after an idle spell runs slow on a virtual machine.
        loop.phase(spec["hi_rate"], seconds * spec["warmup_share"] / 2)
        loop.phase(spec["lo_rate"], seconds * spec["warmup_share"] / 2)
        service_before = service.metrics()
        # The two fixed rates alternate in short chunks, so a slow spell
        # of the machine lands on both instead of on one of them.
        chunks = spec["fixed_rate_chunks"]
        lo_parts, hi_parts = [], []
        for chunk in range(chunks):
            hi_parts.append(
                loop.phase(spec["hi_rate"], seconds * spec["hi_share"] / chunks)
            )
            lo_parts.append(
                loop.phase(
                    spec["lo_rate"],
                    seconds * spec["lo_share"] / chunks,
                    capture=SAMPLE if chunk == 0 else 0,
                )
            )
        lo, hi = loop.summarize(lo_parts), loop.summarize(hi_parts)
        phases = [lo, hi]
        probe_seconds = seconds * spec["probe_share"]

        def probe(rate: int) -> str:
            result = loop.summarize([loop.phase(rate, probe_seconds)])
            phases.append(result)
            return result["verdict"]

        # Near capacity the service flips between keeping up and falling
        # behind, so one search lands a rung above or below at random; the
        # answer is the mean over independent searches.
        searches = [
            search_ladder(
                ladder(spec),
                probe,
                start=spec["ladder_start"],
                # Only passes are reused; any other verdict is probed afresh.
                known={p["rate"]: "pass" for p in (lo, hi) if p["verdict"] == "pass"},
                max_probes=spec["max_probes"],
            )
            for _ in range(spec["searches"])
        ]
        service_after = service.metrics()
    finally:
        service.close()
        gc.unfreeze()
    for phase in phases:
        # Probes above the answer miss the latency limit by design, but a
        # phase stops sending before the queue would shed, so every
        # request of every phase is an operation that must succeed.
        tally.operations(phase["attempted"], phase["failed"])
    tally.check("answers_are_wire_v1_top_k", loop.well_formed)
    bests = [best for best, _ in searches]
    achieved = [
        [p["achieved_rps"] for p in phases if p["rate"] == best and p["verdict"] == "pass"]
        for best in bests
    ]
    return {
        "lo": lo,
        "hi": hi,
        # The answer rate measured at each search's highest passing rung
        # (averaged over that rung's passing phases), then over searches.
        "max_rps": None
        if None in bests
        else sum(sum(rates) / len(rates) for rates in achieved) / len(achieved),
        "search_results": bests,
        "phases": phases,
        "captured": loop.captured,
        "service": _delta(service_before, service_after),
    }


def _delta(before: dict, after: dict) -> dict[str, float]:
    """Request/batch counts and mean latencies between two snapshots."""

    def change(key: str) -> tuple[int, float]:
        """Count and summed seconds of one latency aggregate."""
        counts = [snapshot[key]["count"] for snapshot in (before, after)]
        sums = [
            snapshot[key]["count"] * snapshot[key]["mean_seconds"]
            for snapshot in (before, after)
        ]
        return counts[1] - counts[0], sums[1] - sums[0]

    requests, request_seconds = change("request_latency")
    batches, batch_seconds = change("batches")
    return {
        "requests": requests,
        "request_mean_s": request_seconds / max(1, requests),
        "batches": batches,
        "batch_mean_s": batch_seconds / max(1, batches),
        "queries_scored": after["batches"]["queries_scored"]
        - before["batches"]["queries_scored"],
        "shed": after["shed"] - before["shed"],
    }


# -- HTTP ------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve`` in a subprocess, optionally under the span launcher."""

    def __init__(self, path: str, workdir: Path, trace_out: Path | None = None) -> None:
        self.port = _free_port()
        command = [
            "serve", path, "--port", str(self.port), "--metrics-format", "json",
        ]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli", *command]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            argv = [sys.executable, str(launcher), str(trace_out), *command]
        env = dict(os.environ)
        source = str(Path.cwd() / "src")
        env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
        self.log = (workdir / f"server-{self.port}.log").open("wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=self.log, env=env
        )
        self.ready_s = self._wait_ready()

    def _get(self, target: str, timeout: float = 5.0) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", target)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _wait_ready(self, timeout: float = 60.0) -> float:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            try:
                status, _ = self._get("/healthz", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def metrics(self) -> dict:
        _, body = self._get("/metrics?format=json")
        return json.loads(body)

    def stop(self) -> bool:
        """Interrupt the server and wait for it (so its RSS is counted).

        Returns whether it exited on its own with code 0; a server that
        had to be killed wrote no spans. Otherwise the reason and the tail
        of the server's log go to standard error.
        """
        started = time.perf_counter()
        killed = False
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                killed = True
        self.stop_s = time.perf_counter() - started
        self.log.close()
        clean = not killed and self.process.returncode == 0
        if not clean:
            reason = "did not exit within 30 s of SIGINT" if killed else (
                f"exited with code {self.process.returncode}"
            )
            print(f"server on port {self.port} {reason}:\n{self.log_tail()}", file=sys.stderr)
        return clean

    def log_tail(self, lines: int = 20) -> str:
        text = Path(self.log.name).read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])


async def _closed_loop(
    port: int, bodies: list[bytes], connections: int, seconds: float
) -> tuple[list[tuple[float, int, bytes, int]], float]:
    """``connections`` keep-alive clients, each posting back to back.

    Returns ``(latency_s, status, body, request_index)`` per request and
    the seconds from the start until the last client finished.
    """
    deadline = time.perf_counter() + seconds
    results: list[tuple[float, int, bytes, int]] = []
    counter = [0]

    async def client() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while time.perf_counter() < deadline:
                index = counter[0]
                counter[0] += 1
                body = bodies[index % len(bodies)]
                head = (
                    "POST /recommend HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("latin-1")
                sent = time.perf_counter()
                writer.write(head + body)
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                lines = header.decode("latin-1").split("\r\n")
                status = int(lines[0].split(" ")[1])
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                payload = await reader.readexactly(length)
                results.append((time.perf_counter() - sent, status, payload, index))
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    return results, time.perf_counter() - started


def _connections(spec: dict) -> int:
    """Keep-alive connections: the spec's count, never more than the cores."""
    return min(spec["connections"], available_cores())


def _http(
    spec: dict,
    server: Server,
    queries: list[tuple],
    seconds: float,
    tally: Tally,
) -> dict[str, Any]:
    bodies = [
        json.dumps({"v": 1, "recent": list(query), "top_k": TOP_K}).encode()
        for query in queries
    ]
    connections = _connections(spec)
    asyncio.run(_closed_loop(server.port, bodies, connections, min(1.0, seconds * 0.05)))
    before = server.metrics()
    results, elapsed = asyncio.run(
        _closed_loop(server.port, bodies, connections, seconds)
    )
    after = server.metrics()
    ok = [r for r in results if r[1] == 200]
    tally.operations(len(results), len(results) - len(ok))
    decoded = {r[3]: json.loads(r[2]) for r in ok}
    tally.check(
        "answers_are_wire_v1_top_k",
        all(wire_v1_rows(payload, TOP_K) for payload in decoded.values()),
    )
    sample = sorted(decoded)[:SAMPLE]
    latencies = [r[0] for r in ok]
    return {
        "rps": len(ok) / elapsed,
        "latencies": latencies,
        "sample_queries": [queries[i % len(queries)] for i in sample],
        "sample_served": [decoded[i]["recommendations"] for i in sample],
        "server": _delta(before, after),
    }


# -- the workload entry point -----------------------------------------------


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool, workdir: Path):
    tally = Tally()
    path, queries = inputs.serving_artifact(
        seed, workdir / "artifact.npz", spec["locations"], spec["dim"]
    )
    offline = repro.load(path)
    if spec["transport"] == "in-process":
        return _run_openloop(spec, seed, seconds, trace, workdir, path, queries, offline, tally)
    return _run_http(spec, seed, seconds, trace, workdir, path, queries, offline, tally, name)


def _run_openloop(spec, seed, seconds, trace, workdir, path, queries, offline, tally):
    requests = [RecommendRequest(recent=query, top_k=TOP_K) for query in queries]
    setups = []
    for _ in range(spec["setup_repeats"]):
        started = time.perf_counter()
        service = _service(path)
        setups.append(time.perf_counter() - started)
        service.close()
    report = _openloop(spec, path, requests, seconds, tally)
    captured = report.pop("captured")
    check_sample(
        tally,
        "served_top_k_matches_offline",
        offline,
        [query for query, _ in captured],
        [list(response.recommendations) for query, response in captured],
    )
    tally.check("ladder_found_a_passing_rate", report["max_rps"] is not None)
    lo, hi = report["lo"], report["hi"]
    detail = {
        "setup_samples_s": setups,
        "ladder": spec["ladder"],
        "latency_limit_ms": spec["latency_limit_ms"],
        "lo_p50_ms": lo["p50_ms"],
        "lo_p90_ms": lo["p90_ms"],
        "phases": report["phases"],
        "service": report["service"],
    }
    if not trace:
        # Throughput is the highest rate the service sustains; latency is
        # taken at the high fixed rate, where batches fill (the low rate's
        # figures are in the detail report).
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_frac": metric(tally.ok_frac, "ratio"),
            "throughput_per_s": metric(report["max_rps"] or 0.0, "1/s"),
            "latency_p50_ms": metric(hi["p50_ms"], "ms"),
            "latency_p90_ms": metric(hi["p90_ms"], "ms"),
        }
        return tally, metrics, detail

    recorder = SpanRecorder()
    wrap_serving_layers(recorder)
    try:
        traced = _openloop(spec, path, requests, seconds, tally)
    finally:
        recorder.unwrap_all()
    recorder.write(workdir.parent / f"trace-serve-openloop-{seed}.jsonl")
    traced.pop("captured")
    phases = traced["phases"]
    # Latency runs from each request's due time, the service's own record
    # from the moment it was sent: the difference is the generator's
    # lateness, this workload's "other" term.
    late_ms = sum(p["late_mean_ms"] * p["attempted"] for p in phases) / sum(
        p["attempted"] for p in phases
    )
    metrics, layers, accounting = _serving_layers(
        recorder.spans, traced["service"], outside_ms=late_ms, ledger_inside=False
    )
    layers["gen.late_ms_p90"] = max(p["late_p90_ms"] for p in phases)
    layers["gen.late_ms_max"] = max(p["late_max_ms"] for p in phases)
    metrics["trace.overhead_frac"] = metric(
        traced["hi"]["p50_ms"] / report["hi"]["p50_ms"] - 1.0, "ratio"
    )
    detail["traced"] = {
        "service": traced["service"],
        "max_rps": traced["max_rps"],
        "layers": layers,
        "accounting_ms": accounting,
    }
    return tally, metrics, detail


def _run_http(spec, seed, seconds, trace, workdir, path, queries, offline, tally, name):
    setups, stops, servers = [], [], []
    try:
        for _ in range(spec["setup_repeats"]):
            if servers:
                stops.append(servers[-1].stop())
            servers.append(Server(path, workdir))
            setups.append(servers[-1].ready_s)
        report = _http(spec, servers[-1], queries, seconds, tally)
    finally:
        if servers:
            stops.append(servers[-1].stop())
    tally.check("servers_stopped_cleanly", all(stops))
    check_sample(
        tally,
        "served_top_k_matches_offline",
        offline,
        report["sample_queries"],
        report["sample_served"],
    )
    latencies_ms = [value * 1e3 for value in report["latencies"]]
    detail = {
        "setup_samples_s": setups,
        "stop_samples_s": [server.stop_s for server in servers],
        "requests": len(latencies_ms),
        "connections": _connections(spec),
        "server": report["server"],
    }
    if not trace:
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_frac": metric(tally.ok_frac, "ratio"),
            "throughput_per_s": metric(report["rps"], "1/s"),
            "latency_p50_ms": metric(percentile(latencies_ms, 50), "ms"),
            "latency_p90_ms": metric(percentile(latencies_ms, 90), "ms"),
        }
        return tally, metrics, detail

    spans_path = workdir.parent / f"trace-{name}-{seed}.jsonl"
    server = Server(path, workdir, trace_out=spans_path)
    try:
        traced = _http(spec, server, queries, seconds, tally)
    finally:
        stopped = server.stop()
    if not stopped or not spans_path.is_file():
        raise RuntimeError(
            "the traced server did not stop cleanly and write its spans "
            f"(exit code {server.process.returncode}):\n{server.log_tail()}"
        )
    # Client latency minus the server-recorded request latency: the
    # transport, this workload's "other" term together with wire encoding.
    client_ms = sum(traced["latencies"]) / len(traced["latencies"]) * 1e3
    transport_ms = client_ms - traced["server"]["request_mean_s"] * 1e3
    metrics, layers, accounting = _serving_layers(
        read_spans(spans_path),
        traced["server"],
        outside_ms=transport_ms,
        ledger_inside=True,
    )
    layers["transport.us_per_req"] = transport_ms * 1e3
    metrics["trace.overhead_frac"] = metric(
        percentile([v * 1e3 for v in traced["latencies"]], 50)
        / percentile(latencies_ms, 50)
        - 1.0,
        "ratio",
    )
    detail["traced"] = {
        "server": traced["server"],
        "layers": layers,
        "accounting_ms": {"client": client_ms, **accounting},
    }
    return tally, metrics, detail


def wrap_serving_layers(recorder: SpanRecorder) -> None:
    """Wrap the serving layers that run in the benchmark's own process."""
    from repro.models.recommender import NextLocationRecommender
    from repro.serving.registry import ModelRegistry

    recorder.wrap(
        NextLocationRecommender,
        "recommend_batch",
        "score",
        attrs_of=lambda self, queries, *args, **kwargs: {"n": len(queries)},
    )
    recorder.wrap(ModelRegistry, "load", "registry.load")
    recorder.wrap(RecommendService, "submit_future", "service.submit")
    recorder.wrap(RecommendService, "record_request", "service.record")


def _serving_layers(
    spans: list[Span],
    stats: dict[str, float],
    outside_ms: float,
    ledger_inside: bool,
) -> tuple[dict[str, dict[str, Any]], dict[str, float], dict[str, Any]]:
    """Per-layer serving metrics from spans plus server-side counters.

    Returns the per-layer metrics (the roles every workload reports), the
    fine-grained figures behind them, and the request accounting. Mean
    client latency splits into intake (wire decode plus
    ``submit_future``), schedule (the batcher's queue and window: request
    minus batch latency minus intake and wire encode), compute (scoring
    one batch), dispatch (the rest of the batch: answering its futures),
    ledger (``record_request``, inside the latency only behind HTTP) and
    other (``outside_ms``, the part of client latency the server did not
    record, plus wire encode). The terms are differences of means, so
    they sum to the mean client latency by construction.
    """

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def mean_ms(name: str) -> float:
        found = named(name)
        return sum(span.duration for span in found) / max(1, len(found)) * 1e3

    scores = named("score")
    score_s = sum(span.duration for span in scores)
    scored = sum(span.attrs.get("n", 0) for span in scores)
    request_ms = stats["request_mean_s"] * 1e3
    batch_ms = stats["batch_mean_s"] * 1e3
    score_ms = score_s / max(1, len(scores)) * 1e3
    mean_batch = stats["queries_scored"] / max(1, stats["batches"])
    decode_ms, encode_ms = mean_ms("wire.decode"), mean_ms("wire.encode")
    submit_ms, ledger_ms = mean_ms("service.submit"), mean_ms("service.record")
    intake_ms = decode_ms + submit_ms
    schedule_ms = request_ms - batch_ms - intake_ms - encode_ms
    other_ms = outside_ms + encode_ms - (ledger_ms if ledger_inside else 0.0)
    layers = {
        "registry.load_s": median([s.duration for s in named("registry.load")]),
        "wire.decode_us": decode_ms * 1e3,
        "wire.encode_us": encode_ms * 1e3,
        "service.submit_us": submit_ms * 1e3,
        "service.record_us": ledger_ms * 1e3,
        "batcher.batches": stats["batches"],
        "batcher.mean_batch": mean_batch,
        "batcher.shed": stats["shed"],
        "batcher.wait_ms": request_ms - batch_ms,
        "score.ms_per_batch": score_ms,
        "score.us_per_query": score_s / max(1, scored) * 1e6,
        "service.respond_us_per_query": (batch_ms - score_ms)
        / max(1e-9, mean_batch)
        * 1e3,
    }
    metrics = {
        "load_s": metric(layers["registry.load_s"], "s"),
        "intake_ms": metric(intake_ms, "ms"),
        "schedule_ms": metric(schedule_ms, "ms"),
        "compute_ms": metric(score_ms, "ms"),
        "compute_us_per_item": metric(layers["score.us_per_query"], "us"),
        "items_per_call": metric(mean_batch, "count"),
        "dispatch_ms": metric(batch_ms - score_ms, "ms"),
        "ledger_ms": metric(ledger_ms, "ms"),
        "other_ms": metric(other_ms, "ms"),
        # The service computes no privacy curves.
        "accountant.curves": metric(0, "count"),
    }
    accounting = {
        "request": request_ms,
        "intake": intake_ms,
        "schedule": schedule_ms,
        "compute": score_ms,
        "dispatch": batch_ms - score_ms,
        "ledger": ledger_ms,
        "other": other_ms,
        "ledger_inside_latency": ledger_inside,
    }
    return metrics, layers, accounting
