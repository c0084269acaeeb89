"""Trace sinks: where emitted records go.

A sink is anything with ``append(record)`` and ``close()``.  Records are
plain dicts of JSON-serializable values (the :mod:`repro.obs.schema`
contract), so every sink can serialize without knowing record types.

- :class:`ListSink` — keep everything in memory, in order.  The default
  for tests and short interactive runs.
- :class:`RingSink` — keep only the most recent ``capacity`` records.
  For long always-on runs where only the tail matters (the flight
  recorder idiom).
- :class:`JsonlSink` — stream records to a JSON-lines file as they are
  emitted; this is the on-disk ``repro-trace-v1`` format the
  ``repro trace`` CLI reads back.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ObservabilityError


class ListSink:
    """Accumulate records in an in-memory list."""

    def __init__(self):
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        """Store one record."""
        self.records.append(record)

    def close(self) -> None:
        """No-op (memory sinks hold no resources)."""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)


class RingSink:
    """Keep only the newest ``capacity`` records (a flight recorder)."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ObservabilityError(
                f"ring capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self.dropped = 0  # records pushed out of the ring

    @property
    def records(self) -> list[dict]:
        """The retained records, oldest first."""
        return list(self._ring)

    def append(self, record: dict) -> None:
        """Store one record, evicting the oldest when full."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def close(self) -> None:
        """No-op (memory sinks hold no resources)."""

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._ring)


class JsonlSink:
    """Stream records to a JSON-lines file.

    The file is opened lazily on the first record (so constructing a
    tracer that never fires creates no file) and parent directories are
    created.  One JSON object per line, compact separators — the
    ``repro-trace-v1`` on-disk format.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._file = None
        self.written = 0

    def append(self, record: dict) -> None:
        """Serialize and write one record."""
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the file (safe to call twice)."""
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl(path, tolerate_truncated_tail: bool = True) -> list[dict]:
    """Load a JSONL trace written by :class:`JsonlSink`.

    Raises :class:`ObservabilityError` on a line that is not a JSON
    object, with the offending line number — with one exception: a
    *final* line that does not end in a newline and fails to parse is a
    record a live (or killed) writer had not finished flushing, not
    corruption, and is silently dropped.  That is exactly the state a
    JSONL sink is left in by a SIGKILL mid-write, and what a reader
    tailing a running campaign sees between flushes; pass
    ``tolerate_truncated_tail=False`` to fault on it instead.
    """
    records: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    ends_complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last = len(lines)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if (
                tolerate_truncated_tail
                and lineno == last
                and not ends_complete
            ):
                break
            raise ObservabilityError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{path}:{lineno}: trace records must be JSON objects, "
                f"got {type(record).__name__}"
            )
        records.append(record)
    return records


class JsonlTail:
    """Incremental reader of a (possibly still growing) JSONL file.

    Each :meth:`poll` returns the records completed since the last
    poll.  Only whole lines — terminated by a newline — are parsed; a
    partial trailing line (the writer mid-record) is buffered until its
    newline arrives, so a live reader never crashes on a torn write and
    never yields a record twice.  The file may not exist yet (poll
    returns nothing); a *rotated* file — truncated in place, or
    unlinked and recreated, as log rotation does — is a fresh stream at
    the same path and is re-read from the start.
    Rotation is detected three ways: a size below the read offset (a
    truncate), an inode change (a recreate), and a changed *content
    fingerprint* — the first bytes already consumed no longer match
    what was read before.  The fingerprint is the authoritative check:
    it catches a replacement file that has already grown past the old
    offset by the time the follower polls again, even when the
    filesystem reused the inode number or the file was rewritten in
    place.
    """

    #: Bytes of file head remembered as the rotation fingerprint.
    _PREFIX_LEN = 256

    def __init__(self, path):
        self.path = Path(path)
        self._offset = 0
        self._carry = b""
        self._ino: int | None = None
        self._prefix = b""  # first bytes consumed from this incarnation
        self.records_read = 0

    def poll(self) -> list[dict]:
        """Parse and return every newly completed record."""
        try:
            with self.path.open("rb") as handle:
                stat = os.fstat(handle.fileno())
                size = stat.st_size
                rotated = (
                    (self._ino is not None and stat.st_ino != self._ino)
                    or size < self._offset
                )
                if not rotated and self._prefix:
                    # Same inode, size >= offset — still possibly a
                    # rewritten file.  The head bytes settle it.
                    if handle.read(len(self._prefix)) != self._prefix:
                        rotated = True
                if rotated:
                    # A fresh stream lives at this path: start over and
                    # forget any partial line from the old incarnation.
                    self._offset = 0
                    self._carry = b""
                    self._prefix = b""
                self._ino = stat.st_ino
                handle.seek(self._offset)
                chunk = handle.read()
                self._offset = handle.tell()
                if len(self._prefix) < self._PREFIX_LEN:
                    head = (self._prefix + chunk if self._offset == len(chunk)
                            else self._prefix)
                    self._prefix = head[:self._PREFIX_LEN]
        except FileNotFoundError:
            return []
        data = self._carry + chunk
        lines = data.split(b"\n")
        self._carry = lines.pop()  # b"" when data ended on a newline
        records: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ObservabilityError(
                    f"{self.path}: trace records must be JSON objects, "
                    f"got {type(record).__name__}"
                )
            records.append(record)
        self.records_read += len(records)
        return records


def iter_records(source) -> Iterable[dict]:
    """Normalize a sink, list, or path into an iterable of records."""
    if hasattr(source, "records"):
        return source.records
    if isinstance(source, (str, Path)):
        return read_jsonl(source)
    return source
