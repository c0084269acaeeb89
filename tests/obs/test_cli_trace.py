"""End-to-end CLI tests: record a trace, read it back, validate it."""

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


@pytest.mark.slow
class TestTraceRecord:
    def test_record_run_validates(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "trace", "record", "run", "--out", str(out),
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
            "trace", "record", "toggler", "--out", str(out),
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


@pytest.mark.slow
class TestTraceReadback:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "run.jsonl"
        assert main([
            "trace", "record", "run", "--out", str(out),
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
