"""End-to-end HTTP tests against a live server, driven by ``urllib``.

``test_asgi.py`` speaks to the server through ``http.client``; these
tests use the plain ``urllib`` client an operator's script would, so the
wire contract is checked from a second, independent client.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest


@pytest.fixture(scope="module")
def server_url(server):
    return server.url


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(server_url):
    status, payload = _get(server_url + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["num_locations"] == 40
    assert payload["privacy"]["mechanism"] == "PLP"


def test_recommend_round_trip(server_url):
    status, payload = _post(
        server_url + "/recommend", {"recent": ["poi-0", "poi-4"], "top_k": 3}
    )
    assert status == 200
    assert len(payload["recommendations"]) == 3
    assert payload["fallback"] is False
    for location, score in payload["recommendations"]:
        assert isinstance(location, str) and isinstance(score, float)


def test_recommend_fallback_over_http(server_url):
    status, payload = _post(server_url + "/recommend", {"recent": ["never-seen"]})
    assert status == 200
    assert payload["fallback"] is True
    assert payload["recommendations"][0][0] == "poi-0"


def test_bad_requests_map_to_400(server_url):
    status, payload = _post(server_url + "/recommend", {})
    assert status == 400 and "recent" in payload["error"]
    status, _ = _post(server_url + "/recommend", {"recent": "poi-0"})
    assert status == 400
    status, _ = _post(server_url + "/recommend", {"recent": ["poi-0"], "top_k": 0})
    assert status == 400
    # Invalid JSON body.
    request = urllib.request.Request(
        server_url + "/recommend", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 400


def test_unknown_paths_are_404(server_url):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(server_url + "/nope", timeout=5)
    assert excinfo.value.code == 404
    status, _ = _post(server_url + "/nope", {})
    assert status == 404


def test_reload_bumps_version(server_url):
    _, before = _get(server_url + "/healthz")
    status, payload = _post(server_url + "/reload", {})
    assert status == 200
    assert payload["model_version"] == before["model_version"] + 1


def test_metrics_endpoint_reflects_traffic(server_url):
    _post(server_url + "/recommend", {"recent": ["poi-1"]})
    status, payload = _get(server_url + "/metrics?format=json")
    assert status == 200
    assert payload["requests"]["ok"] >= 1
    assert payload["batches"]["queries_scored"] >= 1
