"""The ``repro-remediation-v1`` report and ``repro-remedy-config-v1`` schemas.

Mirrors the :mod:`repro.diagnose.schema` idiom: the field tables here
are the single source of truth — :func:`validate_remediation_report`
checks a parsed report against them, ``load_playbook_config`` checks a
playbook config, and ``tools/check_docs.py`` regenerates the tables
embedded in ``docs/SERVICE.md`` from the same structures, so
documentation cannot drift from code.
"""

from __future__ import annotations

from repro._fields import check_fields, require_valid
from repro.errors import RemedyError
from repro.remedy.report import SCHEMA, TRIGGERS, VERDICTS

#: Default per-campaign probe budget.
DEFAULT_BUDGET = 8

CONFIG_SCHEMA = "repro-remedy-config-v1"

#: The playbook config read by :func:`repro.remedy.load_playbook_config`,
#: a field table with defaults as in :mod:`repro.campaign.schema`.
CONFIG_DOCUMENT: dict[str, dict] = {
    "config": {
        "doc": (
            "The file the ``--playbooks`` flag points at. Unknown keys "
            "are rejected, so a misspelled key fails instead of silently "
            "running the defaults."
        ),
        "fields": {
            "schema": (
                str, f"{CONFIG_SCHEMA!r}", f"always ``{CONFIG_SCHEMA!r}``",
            ),
            "playbooks": (
                list, "[all three]",
                "playbook names (at least one), fired in the order given",
            ),
            "budget": (
                int, f"{DEFAULT_BUDGET}",
                "per-campaign probe budget, at least 0 "
                "(``--remedy-budget`` overrides it)",
            ),
        },
    },
}

#: The report layout, one field table per JSON object kind, in render
#: order, as :mod:`repro._fields` reads them.
DOCUMENT: dict[str, dict] = {
    "report": {
        "doc": (
            "Top-level document emitted by "
            "``repro campaign run --remediate --remedy-json``."
        ),
        "fields": {
            "schema": (str, f"schema version; always {SCHEMA!r}"),
            "campaign": (str, "the campaign spec's name"),
            "spec_digest": (
                (str, type(None)),
                "sha256 of the spec's canonical JSON, when known",
            ),
            "budget": (int, "per-campaign probe budget the engine ran with"),
            "actions": (list, "one ``action`` object per playbook firing"),
            "summary": (dict, "the campaign-wide ``summary`` object"),
        },
    },
    "action": {
        "doc": "One playbook invocation on one supervised job.",
        "fields": {
            "playbook": (
                str,
                "'confirm-environment' | 'relax-watchdog' | "
                "'isolate-and-rerun'",
            ),
            "index": (int, "job position in the submitted campaign"),
            "key": (str, "content digest of the job's config"),
            "label": ((str, type(None)), "the job's human-readable label"),
            "trigger": (str, " | ".join(f"'{t}'" for t in TRIGGERS)),
            "verdict": (str, " | ".join(f"'{v}'" for v in VERDICTS)),
            "probes": (int, "probe re-executions performed (0 or 1)"),
            "detail": (str, "human-readable justification"),
        },
    },
    "summary": {
        "doc": "Campaign-wide rollup over every action.",
        "fields": {
            "actions": (int, "playbook firings"),
            "probes": (int, "probe re-executions across all actions"),
            "by_verdict": (dict, "action counts keyed by verdict"),
            "by_playbook": (dict, "action counts keyed by playbook"),
        },
    },
}


def validate_remediation_report(document) -> list[str]:
    """Check a parsed report document; return a list of problems.

    Empty list means the document is a valid ``repro-remediation-v1``
    report.  Checks structure, field types, verdict/trigger enums, and
    internal consistency (the summary matches the actions it rolls up).
    """
    problems = check_fields(document, DOCUMENT["report"]["fields"], "report")
    if problems:
        return problems
    if document["schema"] != SCHEMA:
        problems.append(
            f"report: schema is {document['schema']!r}, expected {SCHEMA!r}"
        )
    probes = 0
    by_verdict: dict[str, int] = {}
    for aindex, action in enumerate(document["actions"]):
        where = f"actions[{aindex}]"
        problems.extend(
            check_fields(action, DOCUMENT["action"]["fields"], where)
        )
        if problems:
            continue
        if action["verdict"] not in VERDICTS:
            problems.append(f"{where}: unknown verdict {action['verdict']!r}")
        if action["trigger"] not in TRIGGERS:
            problems.append(f"{where}: unknown trigger {action['trigger']!r}")
        probes += action["probes"]
        by_verdict[action["verdict"]] = by_verdict.get(action["verdict"], 0) + 1
    summary = document["summary"]
    problems.extend(
        check_fields(summary, DOCUMENT["summary"]["fields"], "summary")
    )
    if not problems:
        if summary["actions"] != len(document["actions"]):
            problems.append(
                f"summary: actions={summary['actions']} but document has "
                f"{len(document['actions'])}"
            )
        if summary["probes"] != probes:
            problems.append(
                f"summary: probes={summary['probes']} but actions hold "
                f"{probes}"
            )
        if summary["by_verdict"] != dict(sorted(by_verdict.items())):
            problems.append("summary: by_verdict does not match the actions")
    return problems


def require_valid_remediation_report(document) -> None:
    """Raise :class:`RemedyError` unless the document validates."""
    require_valid(validate_remediation_report(document), SCHEMA, RemedyError)
