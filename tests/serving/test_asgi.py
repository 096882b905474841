"""The asyncio serving front end: wire v1 over HTTP, backpressure, shedding.

The acceptance-critical test is :class:`TestLoadShedding`: saturating a
tiny bounded queue must produce explicit 503 + ``Retry-After`` responses
with *zero* silent drops — every request is answered and accounted.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.serving.api import ServingConfig
from repro.serving.asgi import BackgroundServer
from repro.serving.service import RecommendService


def _request(port, method, path, payload=None, timeout=10, decode=json.loads):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        return _on_connection(connection, method, path, payload, decode)
    finally:
        connection.close()


def _on_connection(connection, method, path, payload=None, decode=json.loads):
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    decoded = decode(raw) if raw else None
    return response.status, dict(response.getheaders()), decoded


class TestWireV1OverHttp:
    def test_healthz(self, server):
        status, _, payload = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["num_locations"] == 40
        assert payload["privacy"]["mechanism"] == "PLP"
        assert payload["models"]["default"]["version"] >= 1

    def test_recommend_carries_model_version_and_served_by(self, server):
        status, _, payload = _request(
            server.port,
            "POST",
            "/recommend",
            {"recent": ["poi-0", "poi-4"], "top_k": 3},
        )
        assert status == 200
        assert payload["v"] == 1
        assert payload["model"] == "default"
        assert payload["version"] >= 1
        assert payload["served_by"] == "exact"
        assert len(payload["recommendations"]) == 3
        for location, score in payload["recommendations"]:
            assert isinstance(location, str) and isinstance(score, float)
        # Legacy spellings stay on the wire for pre-redesign clients.
        assert payload["model_version"] == payload["version"]
        assert payload["fallback"] is False

    def test_fallback_is_served_by_popularity_prior(self, server):
        status, _, payload = _request(
            server.port, "POST", "/recommend", {"recent": ["never-seen"]}
        )
        assert status == 200
        assert payload["served_by"] == "popularity-prior"
        assert payload["fallback"] is True
        assert payload["recommendations"][0][0] == "poi-0"

    def test_explicit_default_model_and_pinned_version(self, server):
        for spec in ("default", "default@1"):
            status, _, payload = _request(
                server.port, "POST", "/recommend", {"recent": ["poi-1"], "model": spec}
            )
            assert status == 200
            assert payload["model"] == "default"

    def test_unknown_model_is_503_not_silent(self, server):
        status, _, payload = _request(
            server.port, "POST", "/recommend", {"recent": ["poi-1"], "model": "nope"}
        )
        assert status == 503
        assert "nope" in payload["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"recent": "poi-0"},
            {"recent": ["poi-0"], "top_k": True},
            {"recent": ["poi-0"], "top_k": 0},
            {"recent": ["poi-0"], "unknown_field": 1},
            {"v": 7, "recent": ["poi-0"]},
        ],
    )
    def test_malformed_requests_are_400(self, server, body):
        status, _, payload = _request(server.port, "POST", "/recommend", body)
        assert status == 400
        assert "error" in payload

    def test_invalid_json_body_is_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/recommend",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["error"]
        finally:
            connection.close()

    def test_unknown_path_is_404_and_bad_method_is_405(self, server):
        status, _, _ = _request(server.port, "GET", "/nope")
        assert status == 404
        status, _, _ = _request(server.port, "POST", "/nope", {})
        assert status == 404
        status, _, _ = _request(server.port, "PUT", "/recommend", {"recent": []})
        assert status == 405

    def test_reload_bumps_version(self, server):
        _, _, before = _request(server.port, "GET", "/healthz")
        status, _, after = _request(server.port, "POST", "/reload", {})
        assert status == 200
        assert after["model_version"] == before["model_version"] + 1

    def test_metrics_reflect_traffic(self, server):
        _request(server.port, "POST", "/recommend", {"recent": ["poi-2"]})
        status, headers, payload = _request(
            server.port, "GET", "/metrics?format=json"
        )
        assert status == 200
        assert payload["requests"]["ok"] >= 1
        assert payload["model_requests"]["default"]["ok"] >= 1

    @pytest.mark.parametrize(
        ("query", "status", "content_type", "check"),
        [
            (
                "",
                200,
                "text/plain",
                lambda text: "# TYPE repro_serving_requests_total counter" in text
                and 'repro_serving_requests_total{status="ok"}' in text
                and "repro_serving_request_seconds_bucket" in text,
            ),
            (
                "?format=jsonl",
                200,
                "application/jsonl",
                lambda text: any(
                    json.loads(line)["metric"] == "repro_serving_requests_total"
                    for line in text.splitlines()
                    if line
                ),
            ),
            (
                "?format=xml",
                400,
                "application/json",
                lambda text: "format" in json.loads(text)["error"],
            ),
        ],
        ids=["prometheus", "jsonl", "xml"],
    )
    def test_metrics_formats(self, server, query, status, content_type, check):
        _request(server.port, "POST", "/recommend", {"recent": ["poi-1"]})
        got, headers, text = _request(
            server.port, "GET", "/metrics" + query, decode=bytes.decode
        )
        assert got == status
        assert headers["Content-Type"].startswith(content_type)
        assert check(text)

    @pytest.mark.parametrize(
        ("content_length", "status"),
        [("1048577", 413), ("-1", 400), ("twelve", 400)],
    )
    def test_rejected_body_closes_the_connection(self, server, content_length, status):
        # The rejected body's bytes must never be parsed as a next request.
        pipelined = (
            "POST /recommend HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
            "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
        ).encode("latin-1")
        received = b""
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(pipelined)
            while chunk := sock.recv(65536):
                received += chunk
        assert received.startswith(f"HTTP/1.1 {status} ".encode())
        assert received.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in received

    def test_concurrent_requests_all_answered(self, server):
        results = [None] * 12
        errors = []

        def worker(index):
            try:
                results[index] = _request(
                    server.port,
                    "POST",
                    "/recommend",
                    {"recent": [f"poi-{index % 40}"], "top_k": 2},
                )
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(status == 200 for status, _, _ in results)
        assert all(len(payload["recommendations"]) == 2 for _, _, payload in results)

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for index in range(3):
                status, _, payload = _on_connection(
                    connection,
                    "POST",
                    "/recommend",
                    {"recent": [f"poi-{index}"], "top_k": 2},
                )
                assert status == 200
                assert len(payload["recommendations"]) == 2
        finally:
            connection.close()


class TestMultiModelServing:
    @pytest.fixture(scope="class")
    def multi_server(self, artifact_path, countless_artifact_path):
        config = ServingConfig(
            artifacts=(
                ("city", str(artifact_path)),
                ("beach", str(countless_artifact_path)),
            ),
            default_model="city",
            mode="exact",
        )
        service = RecommendService.from_config(config)
        with BackgroundServer(service) as background:
            yield background
        service.close()

    def test_request_routes_to_the_named_model(self, multi_server):
        for name in ("city", "beach"):
            status, _, payload = _request(
                multi_server.port,
                "POST",
                "/recommend",
                {"recent": ["poi-1"], "model": name},
            )
            assert status == 200
            assert payload["model"] == name

    def test_default_model_answers_unnamed_requests(self, multi_server):
        status, _, payload = _request(
            multi_server.port, "POST", "/recommend", {"recent": ["poi-1"]}
        )
        assert status == 200
        assert payload["model"] == "city"

    def test_stale_version_pin_is_rejected_after_reload(self, multi_server):
        status, _, _ = _request(
            multi_server.port, "POST", "/reload", {"model": "beach"}
        )
        assert status == 200
        status, _, payload = _request(
            multi_server.port,
            "POST",
            "/recommend",
            {"recent": ["poi-1"], "model": "beach@1"},
        )
        assert status == 503
        assert "version" in payload["error"]
        # The unpinned spelling keeps serving the new snapshot.
        status, _, payload = _request(
            multi_server.port, "POST", "/recommend", {"recent": ["poi-1"], "model": "beach"}
        )
        assert status == 200
        assert payload["version"] == 2


class TestLoadShedding:
    def test_saturation_sheds_with_retry_after_and_zero_silent_drops(
        self, artifact_path
    ):
        # A deliberately tiny pipe: queue of 2, slow batch window — a
        # burst of 24 concurrent requests must overflow it.
        service = RecommendService.from_artifact(
            artifact_path,
            mode="exact",
            max_batch=2,
            max_wait_seconds=0.1,
            timeout_seconds=10.0,
            max_queue=2,
        )
        num_requests = 24
        results = [None] * num_requests
        errors = []
        with BackgroundServer(service, request_timeout=30.0) as background:
            barrier = threading.Barrier(num_requests)

            def worker(index):
                try:
                    barrier.wait(timeout=10)
                    results[index] = _request(
                        background.port,
                        "POST",
                        "/recommend",
                        {"recent": [f"poi-{index % 40}"], "top_k": 5},
                        timeout=30,
                    )
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(num_requests)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            metrics = service.metrics()
        service.close()

        # Zero silent drops: every request produced an HTTP response.
        assert not errors
        assert all(result is not None for result in results)

        ok = [r for r in results if r[0] == 200]
        shed = [
            r
            for r in results
            if r[0] == 503 and "Retry-After" in r[1]
        ]
        other = [r for r in results if r not in ok and r not in shed]
        assert len(ok) + len(shed) == num_requests, f"unexpected: {other}"
        # The queue bound actually bit: explicit 503s, not hidden latency.
        assert shed, "burst never overflowed the max_queue=2 pipe"
        for _, headers, payload in shed:
            assert float(headers["Retry-After"]) > 0
            assert "error" in payload
        for _, _, payload in ok:
            assert len(payload["recommendations"]) == 5
        # ... and the shed path is accounted, not dropped, in metrics.
        assert metrics["requests"].get("shed", 0) == len(shed)
        assert metrics["requests"].get("ok", 0) >= len(ok)
