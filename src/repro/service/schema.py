"""``repro-service-v1``: the service's on-disk state contract.

Two artifacts share the schema name:

- the **journal** (``journal.jsonl`` in the state directory): one JSON
  object per line recording every campaign state transition the service
  makes.  The journal is append-only and fsynced per record, and its
  loader tolerates a truncated tail, so replaying it after a SIGKILL
  reconstructs exactly the acknowledged state;
- the **heartbeat** (``heartbeat.json``): a single JSON object rewritten
  atomically (temp file + rename) on every service loop tick, carrying
  the live pid, the bound HTTP port, and a monotonically increasing
  sequence number — how an operator (or the CI smoke) finds a running
  service and tells a live one from a stale file.

As with every schema in the repo, the field tables here are the single
source of truth: :func:`validate_journal_record` checks records against
them and ``tools/check_docs.py`` renders the same tables into
``docs/SERVICE.md``.
"""

from __future__ import annotations

from repro._fields import check_fields

SERVICE_SCHEMA = "repro-service-v1"

#: File names inside the service state directory.
JOURNAL_FILE = "journal.jsonl"
HEARTBEAT_FILE = "heartbeat.json"

#: Campaign lifecycle, in order.  ``queued`` -> ``running`` -> one of
#: ``done`` / ``failed``; a restart replays the journal and re-queues
#: anything left ``running`` (its checkpoints make the re-run cheap and
#: its report byte-identical).
STATUSES = ("queued", "running", "done", "failed")

#: The document layout, one field table per JSON object kind, in render
#: order, as :mod:`repro._fields` reads them.
DOCUMENT: dict[str, dict] = {
    "journal-header": {
        "doc": "First line of every journal file.",
        "fields": {
            "schema": (str, f"always {SERVICE_SCHEMA!r}"),
        },
    },
    "campaign": {
        "doc": (
            "One campaign state transition (the only journal record "
            "kind).  The last record per id wins on replay."
        ),
        "fields": {
            "kind": (str, "always 'campaign'"),
            "id": (str, "campaign id: prefix of the spec's sha256 digest"),
            "status": (str, " | ".join(f"'{s}'" for s in STATUSES)),
            "spec": (str, "spool file name the spec came from"),
            "name": (str, "the campaign spec's name field"),
            "digest": (str, "full sha256 of the spec's canonical JSON"),
            "detail": (str, "human-readable note (error text on 'failed')"),
        },
    },
    "heartbeat": {
        "doc": (
            "The atomically rewritten liveness file "
            "(``heartbeat.json``)."
        ),
        "fields": {
            "schema": (str, f"always {SERVICE_SCHEMA!r}"),
            "kind": (str, "always 'heartbeat'"),
            "pid": (int, "the service process id"),
            "port": (int, "bound HTTP status port (0 until the server is up)"),
            "seq": (int, "monotonically increasing tick counter"),
            "campaigns": (dict, "campaign counts keyed by status"),
        },
    },
}


def validate_journal_record(record) -> list[str]:
    """Problems with one parsed journal record (empty list = valid)."""
    if isinstance(record, dict) and "schema" in record:
        problems = check_fields(
            record, DOCUMENT["journal-header"]["fields"], "journal header"
        )
        if record["schema"] != SERVICE_SCHEMA:
            problems.append(
                f"header schema is {record['schema']!r}, "
                f"expected {SERVICE_SCHEMA!r}"
            )
        return problems
    if isinstance(record, dict) and record.get("kind") != "campaign":
        return [f"unknown journal record kind {record.get('kind')!r}"]
    problems = check_fields(
        record, DOCUMENT["campaign"]["fields"], "campaign record"
    )
    if not problems and record["status"] not in STATUSES:
        problems.append(
            f"campaign record: unknown status {record['status']!r}"
        )
    return problems
