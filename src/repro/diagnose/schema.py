"""``repro-diagnosis-v1`` document schema: definition and validation.

Mirrors the :mod:`repro.obs.schema` idiom for traces: the field tables
here are the single source of truth — :func:`validate_report` checks a
parsed document against them, and ``tools/check_docs.py`` regenerates
the schema table embedded in ``docs/OBSERVABILITY.md`` from the same
structure, so documentation cannot drift from code.
"""

from __future__ import annotations

from repro._fields import check_fields, require_valid
from repro.diagnose.rules import FINDING_CLASSES, LIMIT_IDLE, LIMIT_NETWORK, \
    LIMIT_RECEIVER, LIMIT_SENDER
from repro.diagnose.report import SCHEMA
from repro.errors import DiagnosisError

_LIMIT_LABELS = (LIMIT_SENDER, LIMIT_NETWORK, LIMIT_RECEIVER, LIMIT_IDLE)

#: The document layout, one field table per JSON object kind, in render
#: order, as :mod:`repro._fields` reads them.
DOCUMENT: dict[str, dict] = {
    "report": {
        "doc": "Top-level document emitted by ``repro diagnose --json``.",
        "fields": {
            "schema": (str, f"schema version; always {SCHEMA!r}"),
            "label": ((str, type(None)), "run label from the trace header"),
            "records": (int, "trace records consumed"),
            "runs": (list, "one ``run`` object per detected run segment"),
            "summary": (dict, "the campaign-wide ``summary`` object"),
        },
    },
    "run": {
        "doc": (
            "One run segment (a simulated-clock restart in the stream "
            "starts the next segment)."
        ),
        "fields": {
            "index": (int, "segment position in the stream (0-based)"),
            "start_ns": (int, "first record timestamp in the segment"),
            "end_ns": (int, "last record timestamp in the segment"),
            "records": (int, "records in the segment"),
            "connections": (list, "one ``connection`` object per socket pair"),
            "findings": (list, "``finding`` objects, detection order"),
        },
    },
    "connection": {
        "doc": "One connection's Dapper-style verdict over the segment.",
        "fields": {
            "id": (str, "socket-pair stem, e.g. 'redis.0'"),
            "verdict": (
                str,
                "dominant limit: 'sender-limited' | 'network-limited' | "
                "'receiver-limited' | 'idle'",
            ),
            "samples": (int, "estimator samples the verdict is built on"),
            "limits": (dict, "per-label sample counts behind the verdict"),
            "timeline": (
                list,
                "compressed label segments {start_ns, end_ns, label}",
            ),
            "finding_classes": (
                list,
                "distinct finding classes attributed to this connection",
            ),
        },
    },
    "finding": {
        "doc": "One detected misbehavior episode.",
        "fields": {
            "class": (str, " | ".join(f"'{c}'" for c in FINDING_CLASSES)),
            "connection": (
                str,
                "socket-pair stem, or controller src for control-plane classes",
            ),
            "start_ns": (int, "first evidence timestamp"),
            "end_ns": (int, "last evidence timestamp"),
            "events": (int, "evidence points clustered into the episode"),
            "detail": (str, "human-readable justification"),
        },
    },
    "summary": {
        "doc": "Campaign-wide rollup over every run segment.",
        "fields": {
            "runs": (int, "run segments diagnosed"),
            "connections": (int, "connection verdicts across all segments"),
            "findings": (int, "findings across all segments"),
            "flagged": (int, "distinct (run, connection) pairs with findings"),
            "by_class": (dict, "finding counts keyed by class"),
        },
    },
}


def validate_report(document) -> list[str]:
    """Check a parsed report document; return a list of problems.

    Empty list means the document is a valid ``repro-diagnosis-v1``
    report.  Checks structure, field types, enum values, and internal
    consistency (summary counts match the runs they summarize).  Each
    check waits only on the field check of the objects it reads, so one
    call reports every problem.
    """
    problems = check_fields(document, DOCUMENT["report"]["fields"], "report")
    if problems:
        return problems
    if document["schema"] != SCHEMA:
        problems.append(
            f"report: schema is {document['schema']!r}, expected {SCHEMA!r}"
        )
    total_findings = 0
    total_connections = 0
    counted = True
    for rindex, run in enumerate(document["runs"]):
        where = f"runs[{rindex}]"
        run_problems = check_fields(run, DOCUMENT["run"]["fields"], where)
        problems.extend(run_problems)
        if run_problems:
            counted = False
            continue
        if run["end_ns"] < run["start_ns"]:
            problems.append(f"{where}: end_ns precedes start_ns")
        for cindex, conn in enumerate(run["connections"]):
            cwhere = f"{where}.connections[{cindex}]"
            conn_problems = check_fields(
                conn, DOCUMENT["connection"]["fields"], cwhere
            )
            problems.extend(conn_problems)
            if not conn_problems and conn["verdict"] not in _LIMIT_LABELS:
                problems.append(
                    f"{cwhere}: unknown verdict {conn['verdict']!r}"
                )
        for findex, finding in enumerate(run["findings"]):
            fwhere = f"{where}.findings[{findex}]"
            finding_problems = check_fields(
                finding, DOCUMENT["finding"]["fields"], fwhere
            )
            problems.extend(finding_problems)
            if (not finding_problems
                    and finding["class"] not in FINDING_CLASSES):
                problems.append(
                    f"{fwhere}: unknown class {finding['class']!r}"
                )
        total_findings += len(run["findings"])
        total_connections += len(run["connections"])
    summary = document["summary"]
    summary_problems = check_fields(
        summary, DOCUMENT["summary"]["fields"], "summary"
    )
    problems.extend(summary_problems)
    if summary_problems:
        return problems
    if summary["runs"] != len(document["runs"]):
        problems.append(
            f"summary: runs={summary['runs']} but document has "
            f"{len(document['runs'])}"
        )
    bad_counts = [
        f"summary: by_class[{name!r}] must be int, got "
        f"{type(count).__name__}"
        for name, count in summary["by_class"].items()
        if not isinstance(count, int) or isinstance(count, bool)
    ]
    problems.extend(bad_counts)
    if counted:
        if summary["findings"] != total_findings:
            problems.append(
                f"summary: findings={summary['findings']} but runs hold "
                f"{total_findings}"
            )
        if summary["connections"] != total_connections:
            problems.append(
                f"summary: connections={summary['connections']} but runs "
                f"hold {total_connections}"
            )
        if not bad_counts and (
            sum(summary["by_class"].values()) != total_findings
        ):
            problems.append("summary: by_class counts do not sum to findings")
    return problems


def require_valid_report(document) -> None:
    """Raise :class:`DiagnosisError` unless the document validates."""
    require_valid(validate_report(document), SCHEMA, DiagnosisError)
