"""Each process imports only the stack it runs.

``import repro``, the CLI and a serving process load no SciPy module;
training loads ``scipy.special`` (the accountant's RDP series) but not
``scipy.stats``. A serving process, and the ``repro serve`` parser, load
no training, privacy, data, linter or benchmark code and no
``multiprocessing``. Each check runs its code in a fresh interpreter and
compares module sets, so the footprint is pinned without timing anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.models.embeddings import EmbeddingMatrix
from repro.models.serialization import save_deployable_model
from repro.models.vocabulary import LocationVocabulary

_SRC = str(Path(repro.__file__).resolve().parents[1])

_REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""

#: Packages a serving process never runs: a module of any of them, or
#: the packages themselves, loading on the serving path is a regression.
_NOT_SERVING = (
    "repro.core",
    "repro.privacy",
    "repro.nn.backends",
    "repro.analysis",
    "repro.bench",
    "repro.experiments",
    "repro.data",
    "multiprocessing",
)


def _modules(code: str, *args: str) -> set[str]:
    """Every module loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _scipy_modules(code: str, *args: str) -> set[str]:
    """The SciPy modules loaded once ``code`` has run in a fresh interpreter."""
    return {m for m in _modules(code, *args) if m.split(".")[0] == "scipy"}


def _training_modules(modules: set[str]) -> set[str]:
    """The members of ``modules`` that lie in a package serving never runs."""
    return {
        m for m in modules
        if any(m == package or m.startswith(package + ".") for package in _NOT_SERVING)
    }


def test_import_repro_and_cli_load_no_scipy():
    assert _scipy_modules("import repro\nimport repro.cli") == set()


def test_serve_parser_loads_no_training_stack():
    modules = _modules(
        "from repro.cli import _build_parser\n"
        "_build_parser().parse_args(['serve', 'model.npz', '--port', '0'])"
    )
    assert "repro.cli" in modules
    assert _training_modules(modules) == set()


_SERVE = """
import json, sys, urllib.request
import repro
from repro.cli import _build_parser, _serve_config_from_args
from repro.serving.asgi import BackgroundServer
from repro.serving.service import RecommendService

path = sys.argv[1]
assert repro.load(path).recommend(["poi-1", "poi-2"], top_k=3)
args = _build_parser().parse_args(["serve", path, "--port", "0"])
service = RecommendService.from_config(_serve_config_from_args(args))
with BackgroundServer(service) as server:
    request = urllib.request.Request(
        server.url + "/recommend",
        data=json.dumps({"recent": ["poi-1", "poi-2"], "top_k": 3}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert len(json.loads(response.read())["recommendations"]) == 3
service.close()
"""


@pytest.fixture
def artifact(tmp_path):
    rng = np.random.default_rng(5)
    vocabulary = LocationVocabulary.from_locations(
        [f"poi-{i}" for i in range(20)], counts=[20 - i for i in range(20)]
    )
    path = tmp_path / "model.npz"
    save_deployable_model(
        path,
        EmbeddingMatrix(rng.normal(size=(20, 6))),
        vocabulary,
        privacy_metadata={"epsilon": 2.0, "delta": 2e-4, "mechanism": "PLP"},
    )
    return path


def test_serving_an_artifact_loads_no_scipy(artifact):
    assert _scipy_modules(_SERVE, str(artifact)) == set()


def test_serving_an_artifact_loads_no_training_stack(artifact):
    modules = _modules(_SERVE, str(artifact))
    assert "repro.serving.asgi" in modules
    assert _training_modules(modules) == set()


_TRAIN = """
import repro

checkins = repro.generate_checkins(
    repro.SyntheticConfig(num_users=40, num_locations=20, num_clusters=4), rng=3
)
model = repro.train(
    repro.PLPConfig(epsilon=2.0, max_steps=1, embedding_dim=6),
    repro.CheckinDataset(checkins),
    rng=3,
)
assert model.privacy["epsilon"] > 0.0
"""


def test_training_loads_scipy_special_but_not_stats():
    modules = _scipy_modules(_TRAIN)
    assert "scipy.special" in modules
    assert not {m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")}
