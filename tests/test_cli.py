"""CLI: argument parsing and all four subcommands end to end."""

import argparse

import pytest

from repro.api.config import ExperimentConfig
from repro.cli import _parse_config, build_parser, main


class TestConfigParsing:
    def test_basic(self):
        cfg = _parse_config("1x2x4")
        assert (cfg.i, cfg.j, cfg.k, cfg.machines) == (1, 2, 4, 1)

    def test_with_machines(self):
        cfg = _parse_config("2x2x8@4")
        assert cfg.machines == 4
        assert cfg.total_gpus == 32

    def test_uppercase_x(self):
        cfg = _parse_config("1X1X2")
        assert cfg.k == 2

    def test_invalid_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_config("1x2")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_config("axbxc")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "wikipedia"
        assert args.config.label() == "1x1x1"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "citeseer"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "mooc", "--scale", "0.004"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out and "paper" in out

    def test_plan(self, capsys):
        assert main(["plan", "--dataset", "wikipedia", "--scale", "0.005",
                     "--machines", "1", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "=>" in out

    def test_throughput(self, capsys):
        assert main(["throughput", "--system", "tgl", "--config", "1x1x8"]) == 0
        out = capsys.readouterr().out
        assert "kE/s" in out

    def test_train_tiny(self, capsys):
        rc = main([
            "train", "--dataset", "wikipedia", "--scale", "0.004",
            "--epochs", "1", "--batch-size", "50", "--memory-dim", "8",
            "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best val" in out

    def test_train_with_config_and_static(self, capsys):
        rc = main([
            "train", "--dataset", "mooc", "--scale", "0.004",
            "--epochs", "2", "--batch-size", "50", "--memory-dim", "8",
            "--config", "1x1x2", "--static-dim", "8", "--quiet",
        ])
        assert rc == 0
        assert "[1x1x2]" in capsys.readouterr().out


class TestServeBench:
    """``serve-bench`` honours the universal flags: it resolves the drill's
    experiment like every other command and ``--dump-config`` prints it
    instead of running the ~40 s drill."""

    def test_serve_bench_dump_config_prints_loadable_json(self, capsys):
        assert main(["serve-bench", "--dump-config"]) == 0
        out = capsys.readouterr().out
        cfg = ExperimentConfig.from_json(out)
        assert cfg.serve.max_replicas > cfg.serve.min_replicas  # elastic fleet

    def test_serve_bench_compact_config_sets_the_parallel_section(self, capsys):
        assert main(["serve-bench", "--config", "2x1x1", "--dump-config"]) == 0
        cfg = ExperimentConfig.from_json(capsys.readouterr().out)
        assert cfg.parallel.label() == "2x1x1"
