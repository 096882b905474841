"""Tests for the command-line interface (in-process invocation)."""

from __future__ import annotations

import json

import pytest

from repro.cli import _build_parser, _resolve_train_config, main
from repro.core.config import PLPConfig
from repro.exceptions import ConfigError


def _train_args(*extra):
    return _build_parser().parse_args(
        ["train", "--synthetic", "--out", "m.npz", *extra]
    )


@pytest.fixture()
def data_csv(tmp_path):
    """A small generated dataset on disk."""
    path = tmp_path / "checkins.csv"
    code = main(
        [
            "generate",
            "--users", "80",
            "--locations", "60",
            "--clusters", "6",
            "--mean-checkins", "25",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def model_npz(tmp_path, data_csv):
    """A PLP model trained on the small dataset."""
    path = tmp_path / "model.npz"
    code = main(
        [
            "train",
            "--data", str(data_csv),
            "--method", "plp",
            "--epsilon", "5",
            "--sampling-probability", "0.2",
            "--embedding-dim", "8",
            "--num-negatives", "4",
            "--max-steps", "6",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, data_csv, capsys):
        assert data_csv.exists()
        content = data_csv.read_text(encoding="utf-8")
        assert content.startswith("user,location,timestamp")


class TestTrain:
    def test_plp(self, model_npz):
        assert model_npz.exists()

    def test_dpsgd(self, tmp_path, data_csv):
        path = tmp_path / "dpsgd.npz"
        code = main(
            [
                "train",
                "--data", str(data_csv),
                "--method", "dpsgd",
                "--epsilon", "5",
                "--sampling-probability", "0.2",
                "--embedding-dim", "8",
                "--num-negatives", "4",
                "--max-steps", "4",
                "--out", str(path),
            ]
        )
        assert code == 0
        assert path.exists()

    def test_nonprivate(self, tmp_path, data_csv):
        path = tmp_path / "np.npz"
        code = main(
            [
                "train",
                "--data", str(data_csv),
                "--method", "nonprivate",
                "--embedding-dim", "8",
                "--epochs", "2",
                "--out", str(path),
            ]
        )
        assert code == 0
        assert path.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "m.npz"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainConfigResolution:
    def test_defaults_match_historical_cli_behaviour(self):
        config = _resolve_train_config(_train_args())
        assert config.learning_rate == 0.2  # CLI default, not PLPConfig's
        assert config.epsilon == 2.0
        assert config.num_negatives == 16

    def test_explicit_flags_apply(self):
        config = _resolve_train_config(
            _train_args("--epsilon", "5", "--embedding-dim", "8")
        )
        assert config.epsilon == 5.0
        assert config.embedding_dim == 8

    def test_config_file_round_trips_plpconfig_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epsilon": 3.0, "learning_rate": 0.06}))
        config = _resolve_train_config(_train_args("--config", str(path)))
        assert config.epsilon == 3.0
        # With --config the PLPConfig defaults apply, not the CLI's.
        assert config.learning_rate == 0.06
        assert config.num_negatives == PLPConfig().num_negatives

    def test_inline_json_config(self):
        config = _resolve_train_config(
            _train_args("--config", '{"embedding_dim": 10}')
        )
        assert config.embedding_dim == 10

    def test_explicit_flags_override_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epsilon": 3.0, "embedding_dim": 10}))
        config = _resolve_train_config(
            _train_args("--config", str(path), "--epsilon", "7")
        )
        assert config.epsilon == 7.0
        assert config.embedding_dim == 10

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            _resolve_train_config(_train_args("--config", '{"not_a_field": 1}'))

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            _resolve_train_config(
                _train_args("--config", str(tmp_path / "nope.json"))
            )

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            _resolve_train_config(_train_args("--config", str(path)))
        with pytest.raises(ConfigError, match="JSON"):
            _resolve_train_config(_train_args("--config", "{not json"))


class TestServeParser:
    def test_serve_without_artifacts_is_a_config_error(self):
        from repro.cli import _serve_config_from_args

        args = _build_parser().parse_args(["serve"])
        with pytest.raises(ConfigError, match="nothing to serve"):
            _serve_config_from_args(args)

    def test_serve_defaults(self):
        args = _build_parser().parse_args(["serve", "m.npz"])
        assert args.mode == "fast"
        assert args.port == 8000
        assert args.max_batch == 64
        assert args.max_queue == 1024
        assert not args.ann
        assert not args.mmap
        assert not args.exclude_input
        assert not args.no_fallback

    def test_serve_builds_a_multi_model_config(self):
        from repro.cli import _serve_config_from_args

        args = _build_parser().parse_args(
            [
                "serve", "city=a.npz", "beach=b.npz",
                "--model", "city", "--ann", "--mmap", "--max-queue", "64",
            ]
        )
        config = _serve_config_from_args(args)
        assert config.artifacts == (("city", "a.npz"), ("beach", "b.npz"))
        assert config.default_model == "city"
        assert config.ann and config.mmap
        assert config.max_queue == 64

    def test_serve_bare_path_defaults_to_the_default_model(self):
        from repro.cli import _serve_config_from_args

        config = _serve_config_from_args(_build_parser().parse_args(["serve", "m.npz"]))
        assert config.artifacts == (("default", "m.npz"),)
        assert config.default_model == "default"

    def test_serve_ann_and_exact_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "m.npz", "--ann", "--exact"])
        assert "--exact" in capsys.readouterr().err


class TestEvaluate:
    def test_prints_hit_rates(self, data_csv, model_npz, capsys):
        code = main(
            [
                "evaluate",
                "--data", str(data_csv),
                "--model", str(model_npz),
                "--holdout", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@10" in out


class TestRecommend:
    def test_prints_top_k(self, model_npz, capsys):
        code = main(
            ["recommend", "--model", str(model_npz), "--recent", "0,1", "--top-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "POI" in out
        assert out.count("\n") >= 3


class TestAudit:
    def test_reports_auc(self, data_csv, model_npz, capsys):
        code = main(
            [
                "audit",
                "--data", str(data_csv),
                "--model", str(model_npz),
                "--holdout", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MIA AUC" in out
        assert "epsilon" in out


class TestLintParser:
    def test_format_choices_are_the_renderers(self):
        from repro.analysis.violations import RENDERERS

        parser = _build_parser()
        for fmt in sorted(RENDERERS):
            args = parser.parse_args(["lint", "--format", fmt])
            assert args.format == fmt
        with pytest.raises(SystemExit):
            parser.parse_args(["lint", "--format", "xml"])
