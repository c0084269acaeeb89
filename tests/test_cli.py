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
        pooled, serial = tmp_path / "pooled.json", tmp_path / "serial.json"
        common = ["fanin", "--clients", "2", "--warmup-ms", "10",
                  "--measure-ms", "20"]
        assert main(common + [
            "--shards", "2", "--workers", "2", "--json", str(pooled),
        ]) == 0
        assert main(common + ["--shards", "1", "--json", str(serial)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("flags", [
        ("--workers", "2"),
        ("--resume", "{store}"),
        ("--cache-dir", "{store}"),
        ("--retries", "1"),
        ("--job-timeout", "5"),
        ("--toggler", "--shards", "1"),
    ], ids=lambda flags: flags[0])
    def test_fanin_rejects_flags_its_model_ignores(
        self, flags, tmp_path, capsys
    ):
        # Supervision flags need --shards; --toggler needs its absence.
        store = tmp_path / "store"
        assert main([
            "fanin", "--clients", "2", "--warmup-ms", "2",
            "--measure-ms", "5",
            *(flag.format(store=store) for flag in flags),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags[0] in err
        assert not store.exists()

    @pytest.mark.parametrize("flags", [
        ("--shards", "2"),
        ("--shards", "auto"),
        ("--shards", "0"),
        ("--workers", "2"),
        ("--workers", "-1"),
    ], ids=" ".join)
    def test_bottleneck_rejects_shards_and_workers(
        self, flags, tmp_path, capsys
    ):
        # The coupled run is one in-process job whatever they say.
        out = tmp_path / "bottleneck.json"
        assert main([
            "bottleneck", "--flows", "2", "--warmup-ms", "2",
            "--measure-ms", "5", *flags, "--json", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags[0] in err
        assert not out.exists()

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
