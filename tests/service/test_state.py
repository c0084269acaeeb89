"""Journal durability/replay semantics and atomic heartbeats."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service import (
    SERVICE_SCHEMA,
    ServiceJournal,
    read_heartbeat,
    validate_journal_record,
    write_heartbeat,
)


def _campaign_record(id_="a" * 16, status="queued", **overrides):
    record = {
        "kind": "campaign", "id": id_, "status": status,
        "spec": "spec.json", "name": "camp", "digest": "d" * 64,
        "detail": "",
    }
    record.update(overrides)
    return record


class TestJournal:
    def test_first_append_writes_the_header(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal.jsonl")
        journal.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        journal.close()
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": SERVICE_SCHEMA}
        assert json.loads(lines[1])["status"] == "queued"

    def test_reopen_appends_without_a_second_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = ServiceJournal(path)
        first.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        first.close()
        second = ServiceJournal(path)
        second.campaign("a" * 16, "running", "s.json", "camp", "d" * 64)
        second.close()
        headers = [
            line for line in path.read_text().splitlines()
            if "schema" in json.loads(line)
        ]
        assert len(headers) == 1

    def test_replay_keeps_the_last_record_per_id(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal.jsonl")
        journal.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        journal.campaign("a" * 16, "running", "s.json", "camp", "d" * 64)
        journal.campaign("b" * 16, "done", "t.json", "other", "e" * 64)
        state = journal.replay()
        journal.close()
        assert state["a" * 16]["status"] == "running"
        assert state["b" * 16]["status"] == "done"

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ServiceJournal(path)
        journal.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind":"campaign","id":"bbbb')  # no newline
        state = ServiceJournal(path).replay()
        assert list(state) == ["a" * 16]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ServiceJournal(path)
        journal.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        journal.close()
        text = path.read_text()
        path.write_text(text + "not json at all\n" + text.splitlines()[1] + "\n")
        with pytest.raises(ServiceError, match="corrupt journal"):
            ServiceJournal(path).load()

    def test_invalid_record_refused_at_append(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal.jsonl")
        with pytest.raises(ServiceError, match="invalid record"):
            journal.append({"kind": "campaign", "id": "x"})
        assert not (tmp_path / "journal.jsonl").exists()

    def test_missing_journal_is_empty(self, tmp_path):
        assert ServiceJournal(tmp_path / "absent.jsonl").load() == []

    def test_close_is_idempotent(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal.jsonl")
        journal.campaign("a" * 16, "queued", "s.json", "camp", "d" * 64)
        journal.close()
        journal.close()


class TestRecordValidation:
    def test_valid_record_passes(self):
        assert validate_journal_record(_campaign_record()) == []

    def test_header_passes(self):
        assert validate_journal_record({"schema": SERVICE_SCHEMA}) == []

    def test_wrong_header_schema_fails(self):
        assert validate_journal_record({"schema": "repro-service-v0"})

    def test_unknown_status_fails(self):
        assert validate_journal_record(_campaign_record(status="paused"))

    def test_missing_field_fails(self):
        record = _campaign_record()
        del record["digest"]
        assert validate_journal_record(record)

    def test_unknown_kind_fails(self):
        assert validate_journal_record({"kind": "mystery"})

    def test_unexpected_fields_fail(self):
        assert validate_journal_record(_campaign_record(extra=1)) == [
            "campaign record: unexpected fields ['extra']"
        ]
        header = {"schema": SERVICE_SCHEMA, "extra": 1}
        assert validate_journal_record(header) == [
            "journal header: unexpected fields ['extra']"
        ]


class TestHeartbeat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        write_heartbeat(path, pid=123, port=8080, seq=7,
                        campaigns={"done": 2})
        document = read_heartbeat(path)
        assert document["pid"] == 123
        assert document["port"] == 8080
        assert document["seq"] == 7
        assert document["campaigns"] == {"done": 2}
        assert document["schema"] == SERVICE_SCHEMA

    def test_rewrite_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        for seq in range(3):
            write_heartbeat(path, pid=1, port=0, seq=seq, campaigns={})
        assert [p.name for p in tmp_path.iterdir()] == ["heartbeat.json"]
        assert read_heartbeat(path)["seq"] == 2

    def test_absent_or_garbage_reads_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "absent.json") is None
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{torn")
        assert read_heartbeat(garbage) is None
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other"}))
        assert read_heartbeat(wrong) is None
