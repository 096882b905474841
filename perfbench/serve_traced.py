"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_traced.py SPANS.jsonl serve ARTIFACT --port N ...

Everything after the spans path is passed to the ``repro`` command line.
The wrappers time wire decoding (``RecommendRequest.from_dict``), wire
encoding (``RecommendResponse.as_dict``), batch scoring
(``NextLocationRecommender.recommend_batch``) and artifact loading
(``ModelRegistry.load``). Spans stay in memory and are written when the
server stops (on SIGINT, as ``repro serve`` expects).
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

    from perfbench.serve import wrap_serving_layers
    from perfbench.spans import SpanRecorder
    from repro.cli import main as cli_main
    from repro.serving.api import RecommendRequest, RecommendResponse

    recorder = SpanRecorder()
    recorder.wrap(RecommendRequest, "from_dict", "wire.decode")
    recorder.wrap(RecommendResponse, "as_dict", "wire.encode")
    wrap_serving_layers(recorder)
    try:
        return cli_main(command)
    finally:
        recorder.unwrap_all()
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
