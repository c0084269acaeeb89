"""JsonlTail under log rotation, and a live follower surviving it.

Under log rotation the file a follower is attached to is truncated in
place, or unlinked and recreated, while the follower keeps polling.  The tail must treat the rotated file as a
fresh stream at the same path — re-read from the start, drop any
buffered partial line from the old incarnation, and never yield a
record twice — and ``repro diagnose --follow`` built on top must ride
through the event without crashing or losing the new stream.
"""

from __future__ import annotations

import json

from repro.diagnose import diagnose_records, follow_trace
from repro.obs.sinks import JsonlTail

from tests.diagnose.conftest import header, tcp_tx


def _write(path, records, mode="a", partial=None):
    with open(path, mode) as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        if partial is not None:
            handle.write(partial)  # no newline: a torn write in flight


def _events(start, count, src="conn.0.a"):
    return [
        tcp_tx((start + i) * 1_000_000, src=src) for i in range(count)
    ]


class TestTruncateInPlace:
    def test_truncated_file_is_reread_from_the_start(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write(path, _events(1, 5))
        tail = JsonlTail(path)
        assert len(tail.poll()) == 5

        # Rotate: truncate in place, then write a shorter fresh stream.
        _write(path, _events(100, 2), mode="w")
        records = tail.poll()
        assert [r["t"] for r in records] == [100_000_000, 101_000_000]
        assert tail.records_read == 7

    def test_partial_line_from_the_old_file_is_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write(path, _events(1, 2), partial='{"t": 3, "typ')
        tail = JsonlTail(path)
        assert len(tail.poll()) == 2  # torn tail buffered, not parsed

        _write(path, _events(100, 3), mode="w")
        records = tail.poll()
        # The buffered fragment must not be glued onto the new stream.
        assert [r["t"] for r in records] == [
            100_000_000, 101_000_000, 102_000_000,
        ]


class TestUnlinkAndRecreate:
    def test_recreated_file_is_reread_from_the_start(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write(path, _events(1, 5))
        tail = JsonlTail(path)
        assert len(tail.poll()) == 5

        path.unlink()
        assert tail.poll() == []  # gone is quiet, not an error

        _write(path, _events(100, 3))
        assert [r["t"] for r in tail.poll()] == [
            100_000_000, 101_000_000, 102_000_000,
        ]

    def test_recreated_file_larger_than_the_old_offset(self, tmp_path):
        # The subtle case: by the time the follower polls again, the
        # replacement file has already grown *past* the old offset, so
        # size alone cannot reveal the rotation — the inode does.
        path = tmp_path / "trace.jsonl"
        _write(path, _events(1, 3))
        tail = JsonlTail(path)
        assert len(tail.poll()) == 3

        path.unlink()
        _write(path, _events(100, 50))
        records = tail.poll()
        assert len(records) == 50
        assert records[0]["t"] == 100_000_000


class _RotatingFeeder:
    """Clock/sleep pair that rotates the file mid-follow."""

    def __init__(self, path, before, after):
        self.path = path
        self.steps = [
            ("append", before),
            ("rotate", after),
        ]
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds
        if not self.steps:
            return
        action, records = self.steps.pop(0)
        _write(self.path, records, mode="w" if action == "rotate" else "a")


class TestFollowSurvivesRotation:
    def test_follow_trace_rides_through_a_rotation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.touch()
        before = [header(label="first")] + [
            tcp_tx(t * 1_000_000, retransmit=(t % 5 == 0))
            for t in range(1, 30)
        ]
        after = [header(label="second")] + [
            tcp_tx(t * 1_000_000, retransmit=(t % 5 == 0))
            for t in range(1, 30)
        ]
        feeder = _RotatingFeeder(path, before, after)
        report = follow_trace(
            path, poll_s=1.0, idle_timeout_s=3.0,
            clock=feeder.clock, sleep=feeder.sleep,
        )
        # The recreated file is a fresh stream: the follower saw the old
        # records then the new ones, exactly as an offline pass over the
        # concatenation would.
        offline = diagnose_records(before + after)
        assert report.to_canonical() == offline.to_canonical()
