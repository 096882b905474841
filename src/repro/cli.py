"""Command-line interface for the PLP reproduction.

Subcommands cover the full workflow::

    repro generate  --users 600 --locations 300 --out checkins.csv
    repro generate  --users 100000 --store --profile bulk --out corpus/
    repro train     --data checkins.csv --method plp --epsilon 2.0 --out model.npz
    repro train     --data corpus/ --executor sharded --workers 4 --out model.npz
    repro evaluate  --data checkins.csv --model model.npz
    repro recommend --model model.npz --recent 17,42,8 --top-k 10
    repro serve     model.npz --port 8000
    repro serve     city=a.npz beach=b.npz --model city --ann --mmap
    repro audit     --data checkins.csv --model model.npz
    repro lint      src --format text
    repro bench     --quick --out BENCH_plp.json

``repro train --synthetic`` skips the CSV and trains straight on a fresh
synthetic workload. All commands are deterministic under ``--seed``.

Training flags mirror :class:`~repro.core.config.PLPConfig` field names
(``--num-negatives`` for ``num_negatives``, and so on); a full or partial
config can also be given as JSON via ``--config`` (a file path or an
inline object), with explicit flags overriding the file through
``PLPConfig.with_overrides``.

Each command imports its own stack inside its handler, and building the
parser imports none of them: ``repro serve`` never loads the training
engine, and ``repro --help`` loads no command's code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import ConfigError, ReproError

if TYPE_CHECKING:
    from repro.core.config import PLPConfig
    from repro.data.checkins import CheckinDataset
    from repro.data.store import CheckinStore
    from repro.serving.api import ServingConfig

# Historical CLI defaults for the PLPConfig-backed train flags. Applied
# only when the flag is absent AND no --config file supplies the field, so
# `repro train` behaves exactly as before --config existed (note
# learning_rate 0.2, the CLI's long-standing default, vs the paper's 0.06
# in PLPConfig).
_TRAIN_FLAG_DEFAULTS = {
    "epsilon": 2.0,
    "delta": 2e-4,
    "grouping_factor": 4,
    "sampling_probability": 0.06,
    "noise_multiplier": 2.5,
    "clip_bound": 0.5,
    "learning_rate": 0.2,
    "embedding_dim": 50,
    "num_negatives": 16,
    "max_steps": None,
    "backend": "reference",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentially-private next-location prediction (EDBT 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate synthetic check-ins")
    generate.add_argument("--users", type=int, default=600)
    generate.add_argument("--locations", type=int, default=300)
    generate.add_argument("--clusters", type=int, default=15)
    generate.add_argument("--mean-checkins", type=float, default=30.0)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--out", required=True, help="output CSV path (a directory with --store)"
    )
    generate.add_argument(
        "--store",
        action="store_true",
        help="write a sharded on-disk store (directory) instead of a CSV; "
        "the corpus is written raw (unpreprocessed), one memory-mapped "
        "shard per block of users — see docs/data.md",
    )
    generate.add_argument(
        "--profile",
        choices=("session", "bulk"),
        default="session",
        help="synthesis profile for --store: 'session' matches "
        "generate_checkins bit-for-bit, 'bulk' uses the vectorized "
        "block generator for very large corpora",
    )

    train = subparsers.add_parser("train", help="train a next-location model")
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--data",
        help="input corpus: a check-in CSV or a sharded-store directory "
        "(from `repro generate --store`)",
    )
    source.add_argument(
        "--synthetic", action="store_true", help="train on a fresh synthetic workload"
    )
    train.add_argument(
        "--method", choices=("plp", "dpsgd", "nonprivate"), default="plp"
    )
    train.add_argument(
        "--config",
        default=None,
        help="PLPConfig as JSON: a file path or an inline object; "
        "explicit flags override it",
    )
    # PLPConfig-backed flags use SUPPRESS so 'explicitly given' is
    # distinguishable from 'defaulted' when merging with --config.
    suppress = argparse.SUPPRESS
    train.add_argument("--epsilon", type=float, default=suppress)
    train.add_argument("--delta", type=float, default=suppress)
    train.add_argument("--grouping-factor", type=int, default=suppress)
    train.add_argument("--sampling-probability", type=float, default=suppress)
    train.add_argument("--noise-multiplier", type=float, default=suppress)
    train.add_argument("--clip-bound", type=float, default=suppress)
    train.add_argument("--learning-rate", type=float, default=suppress)
    train.add_argument("--embedding-dim", type=int, default=suppress)
    train.add_argument(
        "--num-negatives", dest="num_negatives", type=int, default=suppress
    )
    train.add_argument("--max-steps", type=int, default=suppress)
    train.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default=suppress,
        help="compute kernel backend: reference (exact float64) or fast "
        "(float32 fused kernels, same privacy accounting)",
    )
    train.add_argument("--epochs", type=int, default=5, help="non-private epochs")
    train.add_argument("--seed", type=int, default=7)
    train.add_argument(
        "--executor",
        choices=("serial", "sharded"),
        default="serial",
        help="bucket execution backend: serial, or sharded (the process "
        "pool: workers resolve each bucket's pairs from the corpus when "
        "omega is 1, otherwise receive them). Results are bit-identical "
        "across both.",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor sharded (default: all cores)",
    )
    train.add_argument(
        "--shard-dir",
        default=None,
        help="with --synthetic --executor sharded: materialize the "
        "synthetic corpus into this sharded-store directory (raw, "
        "unpreprocessed) and train out-of-core from it",
    )
    train.add_argument(
        "--trace-jsonl",
        default=None,
        help="stream engine spans to this JSON-lines trace file",
    )
    train.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics registry to this file after training",
    )
    train.add_argument(
        "--metrics-format",
        choices=("prometheus", "jsonl"),
        default="prometheus",
        help="format for --metrics-out (default: prometheus text)",
    )
    train.add_argument("--out", required=True, help="output model .npz path")

    evaluate = subparsers.add_parser(
        "evaluate", help="leave-one-out HR@k of a model on held-out users"
    )
    evaluate.add_argument("--data", required=True, help="check-in CSV")
    evaluate.add_argument("--model", required=True, help="model .npz")
    evaluate.add_argument("--holdout", type=int, default=50, help="users to hold out")
    evaluate.add_argument("--seed", type=int, default=7)

    recommend = subparsers.add_parser(
        "recommend", help="top-K next locations for recent check-ins"
    )
    recommend.add_argument("--model", required=True, help="model .npz")
    recommend.add_argument(
        "--recent", required=True, help="comma-separated recent POI ids"
    )
    recommend.add_argument("--top-k", type=int, default=10)

    serve = subparsers.add_parser(
        "serve",
        help="serve one or more models over HTTP (asyncio, POST /recommend)",
    )
    serve.add_argument(
        "artifacts",
        nargs="*",
        metavar="NAME=PATH",
        help="deployable .npz artifacts to host, as NAME=PATH pairs; "
        "a single bare PATH is hosted under the name 'default'",
    )
    serve.add_argument(
        "--model",
        default=None,
        help="default model for requests that name none, as NAME[@VERSION]",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    topk_path = serve.add_mutually_exclusive_group()
    topk_path.add_argument(
        "--ann",
        action="store_true",
        help="answer top-k through the clustered sublinear index "
        "(recall knob: --nprobe; see docs/serving.md)",
    )
    topk_path.add_argument(
        "--exact",
        action="store_true",
        help="score every location per query (the default path)",
    )
    serve.add_argument(
        "--nprobe",
        type=int,
        default=8,
        help="clusters probed per ANN query (higher = better recall)",
    )
    serve.add_argument(
        "--clusters",
        type=int,
        default=None,
        help="ANN partition count (default: about sqrt(num_locations))",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="bound on queued requests; beyond it the server sheds load "
        "with 503 + Retry-After",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map artifact embeddings so concurrent serving "
        "processes share one read-only copy",
    )
    serve.add_argument(
        "--mode",
        choices=("fast", "exact"),
        default="fast",
        help="scoring kernel: float32 fast (default) or float64 exact",
    )
    serve.add_argument(
        "--exclude-input",
        action="store_true",
        help="drop the query's own locations from recommendations",
    )
    serve.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail all-unknown queries instead of answering from the "
        "popularity prior",
    )
    serve.add_argument(
        "--metrics-format",
        choices=("prometheus", "json", "jsonl"),
        default="prometheus",
        help="default representation of GET /metrics (per-request "
        "override: ?format=)",
    )
    serve.add_argument(
        "--trace-jsonl",
        default=None,
        help="stream serving spans to this JSON-lines trace file",
    )
    serve.add_argument(
        "--include-counts",
        action="store_true",
        help="export per-POI recommendation counters (live-traffic "
        "telemetry, NOT covered by the DP guarantee)",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="batching window: how long to hold a request for peers",
    )
    serve.add_argument(
        "--timeout", type=float, default=2.0, help="per-request deadline (s)"
    )

    audit = subparsers.add_parser(
        "audit", help="membership-inference audit of a released model"
    )
    audit.add_argument("--data", required=True, help="check-in CSV")
    audit.add_argument("--model", required=True, help="model .npz")
    audit.add_argument("--holdout", type=int, default=50)
    audit.add_argument("--seed", type=int, default=7)

    lint = subparsers.add_parser(
        "lint",
        help="dplint: check the DP/determinism invariants "
        "(docs/static-analysis.md)",
    )
    add_lint_arguments(lint)

    bench = subparsers.add_parser(
        "bench",
        help="end-to-end benchmark: train/evaluate/recommend with "
        "per-backend kernel timings; diffs against the committed "
        "BENCH_plp.json baseline",
    )
    _add_bench_arguments(bench)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declarative experiment grid in parallel with "
        "resumable state (docs/sweeps.md)",
    )
    sweep.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="sweep spec JSON (omit with --figures)",
    )
    sweep.add_argument(
        "--out", required=True, help="output directory for manifest/outcomes/aggregate"
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="process-pool width (1 = in-process)"
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous sweep in --out, skipping completed runs",
    )
    sweep.add_argument(
        "--subset", default=None, help="run only this named subset of the spec"
    )
    sweep.add_argument(
        "--halt-after",
        type=int,
        default=None,
        help="stop after this many newly executed runs (exit code 5; "
        "resume later with --resume)",
    )
    sweep.add_argument(
        "--figures",
        action="store_true",
        help="regenerate every paper figure as sweeps under --out",
    )
    sweep.add_argument(
        "--scale",
        choices=("smoke", "paper"),
        default="smoke",
        help="figure scale for --figures (default: smoke)",
    )
    sweep.add_argument("--fault-marker", default=None, help=argparse.SUPPRESS)
    sweep.add_argument(
        "--trace-jsonl",
        default=None,
        help="stream sweep spans to this JSON-lines trace file",
    )
    sweep.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics registry to this file after the sweep",
    )
    sweep.add_argument(
        "--metrics-format",
        choices=("prometheus", "jsonl"),
        default="prometheus",
        help="format for --metrics-out (default: prometheus text)",
    )

    return parser


#: ``repro lint --format`` values: the keys of
#: :data:`repro.analysis.violations.RENDERERS`, spelled out here so that
#: building the parser imports no linter code.
_LINT_FORMATS = ("github", "json", "text")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the dplint flags (``repro lint``, ``python -m repro.analysis``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=_LINT_FORMATS,
        default="text",
        help="output format (github emits ::error workflow annotations)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report only violations in files changed vs git HEAD "
            "(untracked files included; the full tree is still parsed "
            "for whole-program context)"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "after linting, run the dpsan runtime smoke (training "
            "determinism + concurrency assertions); fails the run if "
            "either the lint or the smoke fails"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rules and exit"
    )


def _add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro bench`` flags (run by :mod:`repro.bench`)."""
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


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.checkins import CheckinDataset
    from repro.data.io import save_checkins_csv
    from repro.data.preprocessing import paper_preprocessing
    from repro.data.synthetic import (
        SyntheticConfig,
        generate_checkins,
        materialize_synthetic_store,
    )

    config = SyntheticConfig(
        num_users=args.users,
        num_locations=args.locations,
        num_clusters=args.clusters,
        mean_checkins_per_user=args.mean_checkins,
    )
    if args.store:
        with materialize_synthetic_store(
            config, path=args.out, rng=args.seed, profile=args.profile
        ) as store:
            print(
                f"wrote {store.num_checkins} check-ins "
                f"({store.num_users} users) to sharded store {args.out}"
            )
            print(f"  {store.stats().as_dict()}")
        return 0
    checkins = paper_preprocessing(generate_checkins(config, rng=args.seed))
    count = save_checkins_csv(args.out, checkins)
    stats = CheckinDataset(checkins).stats()
    print(f"wrote {count} check-ins to {args.out}")
    print(f"  {stats.as_dict()}")
    return 0


def _load_dataset(args: argparse.Namespace) -> CheckinDataset:
    """The corpus as an in-memory dataset (evaluate/audit need full passes)."""
    from repro.data.checkins import CheckinDataset
    from repro.data.preprocessing import paper_preprocessing
    from repro.data.store import open_corpus
    from repro.data.synthetic import SyntheticConfig, generate_checkins

    if getattr(args, "synthetic", False):
        checkins = paper_preprocessing(generate_checkins(SyntheticConfig(), rng=args.seed))
        return CheckinDataset(checkins)
    with open_corpus(args.data) as corpus:
        return corpus.to_dataset()


def _resolve_train_corpus(args: argparse.Namespace) -> "CheckinDataset | CheckinStore":
    """The training corpus, honoring --synthetic / --data / --shard-dir.

    Raises:
        ConfigError: on flag combinations that cannot work (``--workers``
            without a multi-process executor, ``--shard-dir`` without
            ``--synthetic --executor sharded``).
    """
    from repro.data.checkins import CheckinDataset
    from repro.data.preprocessing import paper_preprocessing
    from repro.data.store import open_corpus
    from repro.data.synthetic import (
        SyntheticConfig,
        generate_checkins,
        materialize_synthetic_store,
    )

    if args.workers is not None and args.executor != "sharded":
        raise ConfigError(
            f"--workers only applies to --executor sharded, not {args.executor!r}"
        )
    if args.shard_dir is not None:
        if args.executor != "sharded":
            raise ConfigError(
                "--shard-dir requires --executor sharded "
                f"(got --executor {args.executor})"
            )
        if not args.synthetic:
            raise ConfigError(
                "--shard-dir materializes a fresh synthetic corpus; to train "
                "from an existing store, point --data at its directory"
            )
        return materialize_synthetic_store(
            SyntheticConfig(), path=args.shard_dir, rng=args.seed
        )
    if args.synthetic:
        checkins = paper_preprocessing(
            generate_checkins(SyntheticConfig(), rng=args.seed)
        )
        return CheckinDataset(checkins)
    return open_corpus(args.data)


def _load_config_json(source: str) -> dict:
    """Parse ``--config``: an inline JSON object or a path to one."""
    text = source
    if not source.lstrip().startswith("{"):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {source}")
        text = path.read_text(encoding="utf-8")
    try:
        values = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"--config is not valid JSON: {error}") from error
    if not isinstance(values, dict):
        raise ConfigError("--config must hold a JSON object of PLPConfig fields")
    return values


def _resolve_train_config(args: argparse.Namespace) -> PLPConfig:
    """Merge --config JSON with explicit flags (flags win).

    Without ``--config``, the historical CLI defaults apply, so existing
    invocations train identically.
    """
    from repro.core.config import PLPConfig

    explicit = {
        name: getattr(args, name)
        for name in _TRAIN_FLAG_DEFAULTS
        if hasattr(args, name)
    }
    if args.config is not None:
        base = PLPConfig.from_dict(_load_config_json(args.config))
        return base.with_overrides(**explicit)
    return PLPConfig().with_overrides(**{**_TRAIN_FLAG_DEFAULTS, **explicit})


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.dpsgd import UserLevelDPSGD
    from repro.core.nonprivate import NonPrivateTrainer
    from repro.core.trainer import PrivateLocationPredictor
    from repro.data.store import CheckinStore
    from repro.models.serialization import save_deployable_model

    corpus = _resolve_train_corpus(args)
    print(f"training on {corpus.num_users} users / {corpus.num_locations} POIs")

    observability = None
    if args.trace_jsonl or args.metrics_out:
        from repro.observability import with_observability

        observability = with_observability(
            trace_jsonl=args.trace_jsonl,
            metrics_path=args.metrics_out,
            metrics_format=args.metrics_format,
        )
    engine_opts = dict(
        executor=args.executor,
        workers=args.workers,
        observability=observability,
    )
    config = _resolve_train_config(args)

    try:
        if args.method == "nonprivate":
            trainer = NonPrivateTrainer(
                embedding_dim=config.embedding_dim,
                num_negatives=config.num_negatives,
                learning_rate=config.learning_rate,
                backend=config.backend,
                rng=args.seed,
                **engine_opts,
            )
            history = trainer.fit(corpus, epochs=args.epochs)
            privacy = {"mechanism": "none", "epsilon": "inf"}
        else:
            trainer_cls = (
                UserLevelDPSGD if args.method == "dpsgd" else PrivateLocationPredictor
            )
            trainer = trainer_cls(config, rng=args.seed, **engine_opts)
            history = trainer.fit(corpus)
            privacy = {
                "mechanism": args.method,
                "epsilon": history.final_epsilon,
                "delta": config.delta,
                "steps": len(history),
            }
            print(
                f"  {len(history)} steps ({history.stop_reason}); "
                f"epsilon spent = {history.final_epsilon:.3f}"
            )
            from repro.reporting import sparkline

            print(f"  loss {sparkline(history.losses())}")
    finally:
        if isinstance(corpus, CheckinStore):
            corpus.close()

    if getattr(trainer, "corpus_source", None) is not None:
        privacy["corpus"] = trainer.corpus_source

    save_deployable_model(
        args.out, trainer.embeddings(), trainer.vocabulary, privacy
    )
    print(f"saved deployable model to {args.out}")
    if observability is not None:
        observability.close()
        if args.metrics_out:
            print(f"wrote metrics ({args.metrics_format}) to {args.metrics_out}")
        if args.trace_jsonl:
            print(f"wrote trace to {args.trace_jsonl}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.data.splitting import holdout_users_split, sessionize_dataset
    from repro.eval.evaluator import LeaveOneOutEvaluator
    from repro.models.serialization import load_recommender

    dataset = _load_dataset(args)
    _, holdout = holdout_users_split(dataset, args.holdout, rng=args.seed)
    recommender = load_recommender(args.model)
    evaluator = LeaveOneOutEvaluator(sessionize_dataset(holdout), k_values=(5, 10, 20))
    result = evaluator.evaluate(recommender)
    print(result.summary())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.models.serialization import load_recommender

    recommender = load_recommender(args.model)
    recent = [int(token.strip()) for token in args.recent.split(",") if token.strip()]
    results = recommender.recommend(recent, top_k=args.top_k)
    print(f"recent check-ins: {recent}")
    for rank, (location, score) in enumerate(results, start=1):
        print(f"  {rank:2d}. POI {location} (score {score:.4f})")
    return 0


def _serve_config_from_args(args: argparse.Namespace) -> ServingConfig:
    """Resolve the serve flags into a :class:`ServingConfig` value."""
    from repro.serving.api import ModelRef, ServingConfig

    artifacts: list[tuple[str, str]] = []
    for spec in args.artifacts:
        name, sep, path = spec.partition("=")
        if sep and name and path:
            artifacts.append((name, path))
        elif not sep and len(args.artifacts) == 1:
            artifacts.append(("default", spec))
        else:
            raise ConfigError(
                "artifacts must be NAME=PATH pairs (or a single bare "
                f"PATH), got {spec!r}"
            )

    default_model: str | None = None
    if args.model is not None:
        ref = ModelRef.parse(args.model)
        if ref.version not in (None, 1):
            raise ConfigError(
                "--model can only pin @1: artifacts publish as "
                f"version 1 at startup (got {args.model!r}); pin "
                "later versions per request instead"
            )
        default_model = ref.name

    if not artifacts:
        raise ConfigError(
            "nothing to serve: pass artifacts as NAME=PATH positionals "
            "(or a single bare PATH)"
        )
    return ServingConfig(
        artifacts=tuple(artifacts),
        default_model=default_model or artifacts[0][0],
        mode=args.mode,
        ann=args.ann,
        nprobe=args.nprobe,
        num_clusters=args.clusters,
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait_ms / 1000.0,
        timeout_seconds=args.timeout,
        max_queue=args.max_queue,
        exclude_input=args.exclude_input,
        with_fallback=not args.no_fallback,
        mmap=args.mmap,
        host=args.host,
        port=args.port,
        metrics_format=args.metrics_format,
        include_counts=args.include_counts,
        trace_jsonl=args.trace_jsonl,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.asgi import serve

    serve(_serve_config_from_args(args))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.attacks.membership import MembershipInferenceAttack
    from repro.data.splitting import holdout_users_split
    from repro.models.serialization import load_deployable_model

    dataset = _load_dataset(args)
    train, holdout = holdout_users_split(dataset, args.holdout, rng=args.seed)
    embeddings, vocabulary, privacy = load_deployable_model(args.model)
    attack = MembershipInferenceAttack(embeddings, vocabulary=vocabulary)
    members = [[history.locations()] for history in train][: args.holdout]
    nonmembers = [[history.locations()] for history in holdout]
    result = attack.audit(members, nonmembers)
    print(f"model privacy metadata: {privacy}")
    print(result.summary())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run_from_args

    return run_from_args(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_from_args as run_bench_from_args

    return run_bench_from_args(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import GridSpec, run_figures, run_sweep

    observability = None
    if args.trace_jsonl or args.metrics_out:
        from repro.observability import with_observability

        observability = with_observability(
            trace_jsonl=args.trace_jsonl,
            metrics_path=args.metrics_out,
            metrics_format=args.metrics_format,
        )
    try:
        if args.figures:
            if args.spec is not None:
                raise ConfigError("--figures takes no spec argument")
            reports = run_figures(
                args.out,
                scale=args.scale,
                workers=args.workers,
                resume=args.resume,
                observability=observability,
            )
        else:
            if args.spec is None:
                raise ConfigError("a sweep spec is required (or pass --figures)")
            spec = GridSpec.from_file(args.spec)
            if args.subset:
                spec = spec.subset(args.subset)
            reports = [
                run_sweep(
                    spec,
                    args.out,
                    workers=args.workers,
                    resume=args.resume,
                    halt_after=args.halt_after,
                    fault_marker=args.fault_marker,
                    observability=observability,
                )
            ]
    finally:
        if observability is not None:
            observability.close()
    for report in reports:
        print(report.summary())
        if report.table is not None:
            print(report.table.render())
        if report.aggregate_path is not None:
            print(f"wrote aggregate to {report.aggregate_path}")
    if any(report.halted for report in reports):
        return 5
    if any(report.failed for report in reports):
        return 6
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "recommend": _cmd_recommend,
    "serve": _cmd_serve,
    "audit": _cmd_audit,
    "lint": _cmd_lint,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
