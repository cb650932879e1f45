"""CLI <-> ExperimentConfig integration: --config / --dump-config on every
command, byte-identical round trips, and session persistence from `train`."""

import json

import pytest

from repro.api.config import ExperimentConfig
from repro.cli import build_parser, main

ALL_COMMANDS = ["train", "plan", "stats", "throughput", "serve-bench"]


class TestDumpConfig:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_every_command_dumps_loadable_json(self, command, capsys):
        assert main([command, "--dump-config"]) == 0
        out = capsys.readouterr().out
        cfg = ExperimentConfig.from_json(out)
        assert cfg.to_json() + "\n" == out

    def test_dump_reflects_flags(self, capsys):
        main([
            "train", "--dataset", "mooc", "--scale", "0.004", "--epochs", "3",
            "--batch-size", "40", "--memory-dim", "8", "--config", "1x2x2",
            "--dump-config",
        ])
        d = json.loads(capsys.readouterr().out)
        assert d["data"]["dataset"] == "mooc"
        assert d["train"]["epochs"] == 3
        assert d["model"]["memory_dim"] == 8
        assert (d["parallel"]["j"], d["parallel"]["k"]) == (2, 2)

    def test_dump_load_round_trip_byte_identical(self, capsys, tmp_path):
        """The CI contract: train --dump-config | train --config - is a fixpoint."""
        main(["train", "--dump-config"])
        first = capsys.readouterr().out
        path = tmp_path / "experiment.json"
        path.write_text(first)
        main(["train", "--config", str(path), "--dump-config"])
        assert capsys.readouterr().out == first


class TestConfigFlag:
    def test_notation_still_accepted(self):
        args = build_parser().parse_args(["train", "--config", "1x2x4"])
        assert args.config.label() == "1x2x4"

    def test_json_file_accepted(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(ExperimentConfig().to_json())
        args = build_parser().parse_args(["train", "--config", str(path)])
        assert isinstance(args.config, ExperimentConfig)

    def test_stdin_accepted(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(ExperimentConfig().to_json()))
        args = build_parser().parse_args(["train", "--config", "-"])
        assert isinstance(args.config, ExperimentConfig)

    def test_semantic_notation_error_surfaces(self, capsys):
        """A well-formed but invalid ixjxk is reported as the real constraint
        violation, not as a missing file."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--config", "1x1x3@2"])
        assert "multiple of machines" in capsys.readouterr().err

    def test_garbage_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--config", "no-such-file.json"])
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"learning_rate": 1}}')
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--config", str(bad)])


class TestTrainThroughFacade:
    def test_train_from_json_config_and_save(self, capsys, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "data": {"dataset": "wikipedia", "scale": 0.004},
            "model": {"memory_dim": 8, "time_dim": 8, "embed_dim": 8},
            "parallel": "1x1x2",
            "train": {"epochs": 1, "batch_size": 50, "eval_candidates": 10},
        })
        path = tmp_path / "exp.json"
        path.write_text(cfg.to_json())
        run_dir = tmp_path / "run"
        rc = main(["train", "--config", str(path), "--save", str(run_dir),
                   "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[1x1x2]" in out and "best val" in out
        assert (run_dir / "config.json").exists()
        assert (run_dir / "checkpoint.npz").exists()


class TestResumeCommand:
    def test_train_checkpoint_then_resume_matches_uninterrupted(
        self, capsys, tmp_path
    ):
        base = [
            "--scale", "0.004", "--epochs", "1", "--batch-size", "50", "--quiet",
        ]
        assert main(["train", *base]) == 0
        uninterrupted = capsys.readouterr().out

        ckpt = str(tmp_path / "ckpt")
        assert main([
            "train", *base, "--checkpoint-dir", ckpt, "--checkpoint-every", "3",
        ]) == 0
        capsys.readouterr()
        assert main(["resume", "--dir", ckpt, "--quiet"]) == 0
        resumed = capsys.readouterr().out
        # same best-val/test metrics and iteration count as never stopping
        # (strip the trailing wall-clock field — the one legitimate delta)
        metrics = uninterrupted.split(": ", 1)[1].rsplit(" | ", 1)[0]
        assert metrics in resumed

    def test_resume_without_snapshot_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="resume.json"):
            main(["resume", "--dir", str(tmp_path)])
