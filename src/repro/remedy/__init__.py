"""Automated remediation: typed playbooks over supervision events.

When the always-on diagnosis layer flags a job — or the supervisor
quarantines one — the remediation engine fires deterministic
*playbooks* that re-execute the cell with a targeted edit and classify
the episode's root cause (environment vs configuration, tight budget vs
runaway, transient vs persistent), producing the canonical
``repro-remediation-v1`` report.  See :mod:`repro.remedy.playbooks` for
the recipes and :mod:`repro.remedy.engine` for the firing rules.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RemedyEngine": ".engine",
    "CONFIRM_ENVIRONMENT": ".playbooks",
    "DEFAULT_BUDGET": ".playbooks",
    "ISOLATE_AND_RERUN": ".playbooks",
    "PLAYBOOKS": ".playbooks",
    "RELAX_WATCHDOG": ".playbooks",
    "WATCHDOG_SLACK": ".playbooks",
    "FlaggedJob": ".playbooks",
    "Playbook": ".playbooks",
    "ProbeOutcome": ".playbooks",
    "ProbeRun": ".playbooks",
    "QuarantinedJob": ".playbooks",
    "load_playbook_config": ".playbooks",
    "resolve_playbooks": ".playbooks",
    "result_digest": ".playbooks",
    "SCHEMA": ".report",
    "TRIGGER_FINDING": ".report",
    "TRIGGER_QUARANTINE": ".report",
    "TRIGGERS": ".report",
    "VERDICTS": ".report",
    "RemediationReport": ".report",
    "RemedyAction": ".report",
    "render_report": ".report",
    "require_valid_remediation_report": ".schema",
    "validate_remediation_report": ".schema",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
