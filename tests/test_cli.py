"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.c == [1.0, 3.0, 5.0]

    def test_run_options(self):
        args = build_parser().parse_args([
            "run", "--rate", "5000", "--nagle", "--nagle-mode", "minshall",
            "--value-bytes", "1024",
        ])
        assert args.rate == 5000
        assert args.nagle
        assert args.nagle_mode == "minshall"

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "units"])
        assert args.which == "units"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInterrupt:
    """^C lands as a clean exit, not a traceback (POSIX 128+SIGINT)."""

    def _interrupt(self, monkeypatch, argv):
        def boom(args):
            raise KeyboardInterrupt
        parser = build_parser()
        real_parse = parser.parse_args

        def parse(argv_inner=None):
            args = real_parse(argv_inner)
            args.func = boom
            return args

        monkeypatch.setattr("repro.cli.build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", parse)
        return main(argv)

    def test_interrupted_run_exits_130(self, monkeypatch, capsys):
        code = self._interrupt(monkeypatch, ["run", "--rate", "5000"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_interrupted_campaign_hints_at_resume(
        self, monkeypatch, capsys
    ):
        code = self._interrupt(monkeypatch, [
            "campaign", "run", "spec.json", "--cache-dir", "/tmp/ckpt",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "/tmp/ckpt" in err
        assert "resume" in err


class TestCommands:
    def test_fig1_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "improves" in out

    def test_run_prints_metrics(self, capsys):
        code = main([
            "run", "--rate", "8000", "--measure-ms", "30",
            "--warmup-ms", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved" in out
        assert "latency mean/p50/p99" in out
        assert "hint estimate" in out

    def test_fanin_shards_on_a_pool_write_the_serial_bytes(
        self, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        pooled, serial = tmp_path / "pooled.json", tmp_path / "serial.json"
        trace = tmp_path / "fanin.jsonl"
        common = ["fanin", "--clients", "2", "--warmup-ms", "10",
                  "--measure-ms", "20"]
        assert main(common + [
            "--shards", "2", "--workers", "2", "--json", str(pooled),
            "--trace", str(trace),
        ]) == 0
        assert main(common + ["--shards", "1", "--json", str(serial)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()
        assert main(["trace", "validate", str(trace)]) == 0
        # Infinite lookahead: the engine crosses one barrier.
        windows = [r for r in read_jsonl(trace) if r["type"] == "shard.window"]
        assert [r["shards"] for r in windows] == [2]

    @pytest.mark.parametrize("which, flag", [
        ("units", "--workers"),
        ("exchange", "--resume"),
        ("ewma", "--cache-dir"),
        ("aimd", "--retries"),
        ("timevarying", "--job-timeout"),
    ])
    def test_unsupervised_ablation_rejects_supervision_flags(
        self, which, flag, tmp_path, capsys
    ):
        store = tmp_path / "store"
        value = {"--resume": str(store), "--cache-dir": str(store),
                 "--workers": "2", "--retries": "1", "--job-timeout": "5"}
        assert main([
            "ablation", which, "--measure-ms", "5", flag, value[flag],
        ]) == 2
        err = capsys.readouterr().err
        assert "toggler and variants" in err
        assert not store.exists()

    def test_run_with_nagle_and_mix(self, capsys):
        code = main([
            "run", "--rate", "8000", "--nagle", "--set-ratio", "0.9",
            "--measure-ms", "30", "--warmup-ms", "10",
        ])
        assert code == 0
        assert "byte-queue estimate" in capsys.readouterr().out
