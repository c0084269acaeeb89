"""Durable campaign checkpoints: the ``repro-checkpoint-v1`` shard store.

A campaign is a set of pure jobs keyed by a *content digest* of each
job's configuration.  As jobs complete, the supervisor appends one JSONL
record per result to the current *shard* file; a later campaign pointed
at the same directory loads every shard, skips jobs whose key is already
recorded, and merges stored results with fresh ones — producing output
identical to an uninterrupted run, because the stored result *is* the
run's result (pickled whole, not summarized).

Durability model:

- every record is one line, flushed *and fsynced* as written — a
  SIGKILL (or power loss) after :meth:`CheckpointStore.record_success`
  returns cannot lose the acknowledged record, and the loader tolerates
  a truncated tail from a kill mid-write;
- each store *open* appends to a fresh ``shard-NNN.jsonl``, so a resumed
  campaign never rewrites (or even reopens for write) bytes an earlier
  campaign already made durable;
- every shard begins with a header line naming the schema, so a reader
  rejects a directory written by a different layout before trusting any
  payload in it.

Record layout (one JSON object per line)::

    {"schema": "repro-checkpoint-v1", "label": ...}          # header
    {"kind": "result", "status": "ok", "key": <digest>,
     "attempts": N, "label": <human hint>, "payload": <b64 pickle>}
    {"kind": "result", "status": "failed", "key": <digest>,
     "attempts": N, "failure_kind": ..., "error_type": ...,
     "message": ...}

Failed records are informational: the loader does *not* treat them as
complete, so a resume retries quarantined configs in the (possibly
healthier) new environment.

Because jobs are pure and keys are content digests, one directory also
serves as a result cache shared between experiments: a later command
pointed at the same ``--cache-dir`` replays every job it shares with an
earlier one.  The store counts its lookups and writes for
:meth:`CheckpointStore.describe`.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pathlib
import pickle

from repro.errors import SuperviseError
from repro.supervise.outcome import JobFailure

CHECKPOINT_SCHEMA = "repro-checkpoint-v1"


# ---------------------------------------------------------------------------
# Content-addressed job keys.
# ---------------------------------------------------------------------------


def _plain(obj):
    """A canonical JSON-able view of a job payload, or TypeError."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        plain = {"__type__": type(obj).__qualname__}
        for field in dataclasses.fields(obj):
            plain[field.name] = _plain(getattr(obj, field.name))
        return plain
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _plain(value) for key, value in obj.items()}
    if callable(obj):
        # Identify callables by import path, never by repr (addresses).
        module = getattr(obj, "__module__", None)
        qualname = getattr(obj, "__qualname__", None)
        if module is None or qualname is None or "<locals>" in qualname:
            raise TypeError(f"unkeyable callable {obj!r}")
        return f"callable:{module}:{qualname}"
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"unkeyable {type(obj).__name__}")


def job_key(payload) -> str:
    """A stable content digest of one job's configuration.

    Dataclass trees (the :class:`~repro.loadgen.lancet.BenchConfig`
    case) digest through a canonical sorted-key JSON form, so the key
    survives process restarts, ``PYTHONHASHSEED``, and field-order
    refactors that keep the same field names.  Payloads that cannot be
    canonicalized (exotic objects) fall back to a pickle digest, which
    is stable for a fixed code version — good enough to resume an
    interrupted campaign of the same build.  Payloads that cannot even
    be pickled (closures, lambdas) have no stable identity at all and
    raise :class:`~repro.errors.SuperviseError` — callers that do not
    need durability substitute a positional key instead.
    """
    try:
        canonical = json.dumps(
            _plain(payload), sort_keys=True, separators=(",", ":")
        ).encode()
    except (TypeError, ValueError):
        try:
            canonical = pickle.dumps(payload, protocol=4)
        except Exception as exc:
            raise SuperviseError(
                "job payload is not content-addressable (cannot be "
                "canonicalized or pickled); use module-level functions "
                f"to make the campaign resumable: {exc}"
            ) from exc
    return hashlib.sha256(canonical).hexdigest()


def volatile_key(index: int) -> str:
    """A positional stand-in key for a payload with no stable identity.

    Volatile keys are valid within one campaign (outcome records still
    carry *a* key) but never match across runs, so they must not be
    used with a checkpoint store — a resumed campaign could neither
    find nor trust them.
    """
    return f"volatile-{index:06d}"


def derive_keys(payloads, durable: bool) -> list[str]:
    """Content keys for a batch, with positional fallbacks when allowed.

    ``durable=True`` (a checkpoint store is attached) propagates the
    :class:`~repro.errors.SuperviseError` for non-addressable payloads:
    silently mixing volatile keys into a durable store would record
    results no resume could ever match.
    """
    keys = []
    for index, payload in enumerate(payloads):
        try:
            keys.append(job_key(payload))
        except SuperviseError:
            if durable:
                raise
            keys.append(volatile_key(index))
    return keys


# ---------------------------------------------------------------------------
# The shard store.
# ---------------------------------------------------------------------------


class CheckpointStore:
    """Append-only JSONL shards of completed campaign jobs, by key.

    ``hits`` and ``misses`` count :meth:`get` lookups, and ``stores``
    counts :meth:`record_success` writes, since this object opened.
    """

    def __init__(self, directory, label: str | None = None):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.label = label
        self._completed: dict[str, tuple[object, int]] = {}
        self._failures: dict[str, dict] = {}
        self._load()
        self._shard_path = self.directory / f"shard-{self._next_shard():03d}.jsonl"
        self._shard_file = None
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- loading --------------------------------------------------------

    def _shard_paths(self) -> list[pathlib.Path]:
        return sorted(self.directory.glob("shard-*.jsonl"))

    def _next_shard(self) -> int:
        numbers = []
        for path in self._shard_paths():
            stem = path.stem.split("-", 1)[-1]
            if stem.isdigit():
                numbers.append(int(stem))
        return max(numbers, default=-1) + 1

    def _load(self) -> None:
        for path in self._shard_paths():
            saw_header = False
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail of a killed campaign
                if not isinstance(record, dict):
                    continue
                if "schema" in record:
                    if record["schema"] != CHECKPOINT_SCHEMA:
                        raise SuperviseError(
                            f"{path} is not a {CHECKPOINT_SCHEMA} shard "
                            f"(schema {record['schema']!r})"
                        )
                    saw_header = True
                    continue
                if not saw_header:
                    raise SuperviseError(
                        f"{path} has records before its schema header"
                    )
                if record.get("kind") != "result":
                    continue
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                if record.get("status") == "ok":
                    try:
                        result = pickle.loads(
                            base64.b64decode(record["payload"])
                        )
                    except Exception:
                        continue  # unreadable payload: treat as not done
                    self._completed[key] = (
                        result, int(record.get("attempts", 1))
                    )
                    self._failures.pop(key, None)
                else:
                    self._failures[key] = record

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def get(self, key: str):
        """The stored ``(result, attempts)`` for ``key``, or None;
        counts the lookup as a hit or a miss."""
        stored = self._completed.get(key)
        if stored is None:
            self.misses += 1
        else:
            self.hits += 1
        return stored

    @property
    def failures(self) -> dict[str, dict]:
        """Recorded quarantine records by key (informational)."""
        return dict(self._failures)

    # -- appends --------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._shard_file is None:
            self._shard_file = open(self._shard_path, "a", encoding="utf-8")
            header = {"schema": CHECKPOINT_SCHEMA, "label": self.label}
            self._shard_file.write(
                json.dumps(header, separators=(",", ":")) + "\n"
            )
        self._shard_file.write(json.dumps(record, separators=(",", ":")) + "\n")
        # Flush to the kernel, then fsync to the platter: a record is
        # "acknowledged" the moment this method returns, so a SIGKILL —
        # or a power cut — in the window between append and a later
        # flush must not be able to take it back.
        self._shard_file.flush()
        os.fsync(self._shard_file.fileno())

    def record_success(
        self, key: str, result, attempts: int = 1, label: str | None = None
    ) -> None:
        """Persist one completed job and remember it for this campaign."""
        payload = base64.b64encode(
            pickle.dumps(result, protocol=4)
        ).decode("ascii")
        self._append({
            "kind": "result",
            "status": "ok",
            "key": key,
            "attempts": attempts,
            "label": label,
            "payload": payload,
        })
        self._completed[key] = (result, attempts)
        self._failures.pop(key, None)
        self.stores += 1

    def record_failure(self, key: str, failure: JobFailure) -> None:
        """Persist one quarantined job (informational; retried on resume)."""
        record = {
            "kind": "result",
            "status": "failed",
            "key": key,
            "attempts": failure.attempts,
            "failure_kind": failure.kind,
            "error_type": failure.error_type,
            "message": failure.message,
        }
        self._append(record)
        self._failures[key] = record

    def close(self) -> None:
        """Flush and close the active shard (idempotent)."""
        if self._shard_file is not None:
            self._shard_file.close()
            self._shard_file = None

    def describe(self) -> str:
        """One human line for CLI summaries."""
        return (
            f"cache {self.directory}: {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.stores} store(s), "
            f"{len(self)} result(s) on disk"
        )
