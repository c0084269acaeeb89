"""The long-running campaign service behind ``repro serve``.

A daemon that watches a *spool* directory for ``repro-campaign-v1``
specs, executes each through the supervised campaign engine (with
checkpoints and, optionally, remediation playbooks), and exposes a
read-only HTTP status surface.  Crash-safety comes from two layers: the
per-campaign checkpoint store (every completed cell is fsynced as it
lands) and the service's own ``repro-service-v1`` state journal, so a
killed service restarts, resumes in-flight campaigns, and finishes with
reports byte-identical to an uninterrupted run.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ReproService": ".daemon",
    "ServiceConfig": ".daemon",
    "campaign_id": ".daemon",
    "StatusServer": ".http",
    "HEARTBEAT_FILE": ".schema",
    "JOURNAL_FILE": ".schema",
    "SERVICE_SCHEMA": ".schema",
    "STATUSES": ".schema",
    "validate_journal_record": ".schema",
    "ServiceJournal": ".state",
    "read_heartbeat": ".state",
    "write_heartbeat": ".state",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
