"""End-to-end CLI tests: record a trace with ``--trace``, read it back,
validate it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import read_jsonl, require_valid_stream

REPO = Path(__file__).resolve().parents[2]


def _tcp_events(path) -> set[str]:
    return {record["event"] for record in read_jsonl(path)
            if record["type"] == "tcp.event"}


@pytest.mark.slow
class TestTraceRecord:
    def test_record_run_validates(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--trace", str(out),
            "--rate", "6000", "--measure-ms", "30", "--warmup-ms", "10",
        ])
        assert code == 0
        records = read_jsonl(out)
        require_valid_stream(records)
        assert records[0]["type"] == "trace.header"
        types = {record["type"] for record in records}
        assert "queue.sample" in types
        assert "metrics.snapshot" in types
        stdout = capsys.readouterr().out
        assert "trace written to" in stdout

    def test_record_toggler_has_decisions(self, tmp_path, capsys):
        out = tmp_path / "toggler.jsonl"
        code = main([
            "run", "--toggler", "--trace", str(out),
            "--rate", "8000", "--measure-ms", "40",
        ])
        assert code == 0
        records = read_jsonl(out)
        require_valid_stream(records)
        decisions = [r for r in records if r["type"] == "toggler.decision"]
        assert decisions
        first = decisions[0]
        assert first["tick"] == 1
        assert first["phase"] in {
            "measure", "settle", "loss-freeze", "freeze-hold"
        }
        assert set(first["ewma"]) == {"nagle_off", "nagle_on"}
        snapshot = next(r for r in records
                        if r["type"] == "metrics.snapshot")
        assert "toggler.toggles" in snapshot["metrics"]["counters"]

    def test_deep_adds_the_protocol_hooks(self, tmp_path):
        # A plain trace carries only the always-on taps; --deep adds
        # the per-socket hooks of the same run.
        plain, deep = tmp_path / "plain.jsonl", tmp_path / "deep.jsonl"
        argv = ["run", "--rate", "6000", "--measure-ms", "10",
                "--warmup-ms", "5"]
        assert main(argv + ["--trace", str(plain)]) == 0
        assert main(argv + ["--deep", "--trace", str(deep)]) == 0
        assert _tcp_events(plain) == {"tx", "rx"}
        assert _tcp_events(deep) - _tcp_events(plain) == {
            "send", "segment_sent", "acked", "arrived", "read", "ack_sent",
        }

    def test_toggler_run_is_stored_under_its_own_key(self, tmp_path,
                                                     capsys):
        store = tmp_path / "store"
        argv = ["run", "--rate", "8000", "--measure-ms", "10",
                "--warmup-ms", "5", "--cache-dir", str(store)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--toggler"]) == 0
        toggled = capsys.readouterr().out.splitlines()
        assert main(argv + ["--toggler"]) == 0
        replayed = capsys.readouterr().out.splitlines()
        assert toggled[-1] == (
            f"cache {store}: 0 hit(s), 1 miss(es), 1 store(s), "
            f"2 result(s) on disk"
        )
        assert replayed[-1] == (
            f"cache {store}: 1 hit(s), 0 miss(es), 0 store(s), "
            f"2 result(s) on disk"
        )
        assert replayed[:-1] == toggled[:-1]


class TestRunRefusals:
    """Flags ``repro run`` could not honour exit 2 before anything runs."""

    @pytest.mark.parametrize("flags", [
        ["--deep"],
        ["--toggler", "--nagle"],
        ["--toggler", "--connections", "2"],
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, flags, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "run", "--rate", "8000", "--measure-ms", "5",
            "--cache-dir", str(store), *flags,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert all(flag in captured.err for flag in flags
                   if flag.startswith("--"))
        assert not store.exists()


@pytest.mark.slow
class TestTraceReadback:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "run.jsonl"
        assert main([
            "run", "--trace", str(out),
            "--rate", "6000", "--measure-ms", "30", "--warmup-ms", "10",
        ]) == 0
        return out

    def test_summarize(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "queue.sample" in out

    def test_filter_emits_json_lines(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "trace", "filter", str(trace_path),
            "--type", "queue.sample", "--limit", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 3
        for line in lines:
            assert json.loads(line)["type"] == "queue.sample"

    def test_validate_accepts_good_stream(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["trace", "validate", str(trace_path)]) == 0

    def test_validate_rejects_bad_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"t": 0, "type": "log.message", "src": "log", "message": "x"}\n'
        )
        assert main(["trace", "validate", str(bad)]) == 1


class TestUnreadableTrace:
    """Every command that reads a trace file fails with one line."""

    @pytest.mark.parametrize("command", [
        ["trace", "validate"], ["trace", "summarize"], ["trace", "filter"],
        ["diagnose"],
    ], ids=" ".join)
    @pytest.mark.parametrize("content", [None, "[1, 2]\n", "not json\n"],
                             ids=["missing", "not-an-object", "not-json"])
    def test_exits_1_with_one_line(self, command, content, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        if content is not None:
            path.write_text(content)
        assert main(command + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{path}: unreadable trace: ")


@pytest.mark.slow
class TestRunFlags:
    def test_run_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "run", "--rate", "6000", "--measure-ms", "30",
            "--warmup-ms", "10",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        require_valid_stream(read_jsonl(trace))
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == "repro-metrics-v1"
        assert snapshot["counters"]["exchange.client.states_sent"] > 0

    def test_faults_quiet_silences_progress(self):
        # --quiet must remove all stderr progress; stdout (the table)
        # must be byte-identical either way.
        base = [
            sys.executable, "-m", "repro", "faults",
            "--intensities", "0",
            "--rate", "6000", "--measure-ms", "30",
        ]
        env = {**os.environ, "PYTHONPATH": "src"}
        loud = subprocess.run(
            base, capture_output=True, text=True, cwd=REPO, env=env,
        )
        quiet = subprocess.run(
            base + ["--quiet"], capture_output=True, text=True,
            cwd=REPO, env=env,
        )
        assert loud.returncode == 0 and quiet.returncode == 0
        assert "chaos" in loud.stderr
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout


class TestDocsConsistency:
    def test_check_docs_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_docs.py")],
            capture_output=True, text=True, cwd=REPO,
            env={**os.environ, "PYTHONPATH": "src", "COLUMNS": "80"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
