"""Typed remediation playbooks: what to do about a flagged job.

A playbook is a deterministic recipe that fires on one kind of
supervision event — a diagnosis *finding* on a completed job, or a job
*quarantine* — and classifies the episode's root cause, usually by
re-executing the cell once with a targeted edit (a *probe*):

- :data:`CONFIRM_ENVIRONMENT` re-runs a flagged cell with its fault
  plan stripped and compares result digests: a diverging probe proves
  the injected environment caused the pathology (verdict
  ``environment``); an identical one — or a cell with no fault plan to
  strip — pins it on the configuration (``config``).  The no-plan case
  never probes, so a fault-free cell can *never* be classified
  environment-caused: zero misclassifications by construction.
- :data:`RELAX_WATCHDOG` retries a watchdog-quarantined job with every
  budget scaled ×:data:`WATCHDOG_SLACK`: success means the budget was
  too tight (``recovered-with-slack``), another blowout means a genuine
  runaway (``persistent``).
- :data:`ISOLATE_AND_RERUN` re-runs any other quarantined job serially
  with tracing forced on, capturing a deep trace for the post-mortem:
  a clean re-run is ``transient``, a repeat failure ``persistent``.

Probes are pure re-executions of deterministic cells, so every verdict
— and therefore the whole ``repro-remediation-v1`` report — is
reproducible.  Probes never touch the campaign's checkpoint store,
tracer, or diagnosis stream; remediation observes, it does not alter
campaign output (the importance report is byte-identical with and
without it).

:func:`load_playbook_config` reads the JSON playbook config the CLI's
``--playbooks`` flag points at (see ``examples/remedy_playbooks.json``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
from dataclasses import dataclass
from typing import Callable

from repro._fields import check_fields, require_valid
from repro.errors import RemedyError
from repro.remedy.report import TRIGGER_FINDING, TRIGGER_QUARANTINE
from repro.remedy.schema import CONFIG_DOCUMENT, CONFIG_SCHEMA, DEFAULT_BUDGET

#: Budget multiplier the relax-watchdog probe runs with.
WATCHDOG_SLACK = 4.0


def result_digest(result) -> str:
    """A stable content digest of one cell result (pickle sha256)."""
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


# ---------------------------------------------------------------------------
# Supervision events playbooks fire on.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlaggedJob:
    """A completed job whose trace segment drew diagnosis findings."""

    index: int
    key: str
    label: str | None
    findings: int
    classes: tuple
    result: object

    trigger = TRIGGER_FINDING


@dataclass(frozen=True)
class QuarantinedJob:
    """A job the supervisor gave up on (see JobFailure)."""

    index: int
    key: str
    label: str | None
    kind: str
    error_type: str | None
    message: str

    trigger = TRIGGER_QUARANTINE


# ---------------------------------------------------------------------------
# Probe plumbing (filled in by the campaign engine's prober).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRun:
    """What one probe re-execution produced."""

    result: object = None
    records: int = 0  # deep-trace records captured ('traced' edits)


@dataclass(frozen=True)
class ProbeOutcome:
    """A probe request's fate, as seen by the playbook.

    ``status`` is ``ok`` (ran, succeeded), ``failed`` (ran, raised),
    ``inapplicable`` (the edit does not apply to this cell — e.g. no
    fault plan to strip; nothing executed), ``no-prober`` (remediation
    ran without a bound prober), or ``budget`` (the campaign's probe
    budget is exhausted).  Only ``ok``/``failed`` consumed budget.
    """

    status: str
    run: ProbeRun | None = None
    error_type: str | None = None
    message: str = ""

    @property
    def executed(self) -> bool:
        return self.status in ("ok", "failed")


def _skip_detail(outcome: ProbeOutcome) -> str:
    if outcome.status == "budget":
        return "remediation probe budget exhausted"
    return "no prober bound; cannot re-execute the cell"


# ---------------------------------------------------------------------------
# The playbooks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Playbook:
    """One named remediation recipe.

    ``trigger`` names the event kind it fires on; ``matches`` narrows
    within that kind; ``run(event, probe)`` — where ``probe(edit)``
    returns a :class:`ProbeOutcome` — produces ``(verdict, probes,
    detail)``.
    """

    name: str
    doc: str
    trigger: str
    matches: Callable
    run: Callable


def _confirm_environment(event: FlaggedJob, probe) -> tuple[str, int, str]:
    outcome = probe("strip-faults")
    if outcome.status == "inapplicable":
        return (
            "config", 0,
            "no fault plan to strip; the pathology is "
            "configuration-caused by construction",
        )
    if not outcome.executed:
        return ("skipped", 0, _skip_detail(outcome))
    if outcome.status == "failed":
        return (
            "config", 1,
            f"fault-free probe failed outright "
            f"({outcome.error_type}: {outcome.message}); the "
            f"configuration cannot complete even without injection",
        )
    probed = result_digest(outcome.run.result)
    original = result_digest(event.result)
    if probed != original:
        return (
            "environment", 1,
            f"fault-plan-stripped re-run diverged "
            f"(digest {original[:12]} -> {probed[:12]}): the injected "
            f"environment caused the flagged behavior",
        )
    return (
        "config", 1,
        "fault-plan-stripped re-run reproduced the result byte-for-byte; "
        "the configuration itself is the root cause",
    )


def _relax_watchdog(event: QuarantinedJob, probe) -> tuple[str, int, str]:
    outcome = probe("relax-watchdog")
    if outcome.status == "inapplicable":
        return ("skipped", 0, "no watchdog bound to this campaign's cells")
    if not outcome.executed:
        return ("skipped", 0, _skip_detail(outcome))
    if outcome.status == "ok":
        return (
            "recovered-with-slack", 1,
            f"re-run succeeded under a {WATCHDOG_SLACK:g}x watchdog "
            f"budget; the original budget was too tight for this cell",
        )
    return (
        "persistent", 1,
        f"still failed under a {WATCHDOG_SLACK:g}x watchdog budget "
        f"({outcome.error_type}: {outcome.message}); genuine runaway "
        f"configuration",
    )


def _isolate_and_rerun(event: QuarantinedJob, probe) -> tuple[str, int, str]:
    outcome = probe("traced")
    if outcome.status == "inapplicable":
        return ("skipped", 0, "cell cannot be re-executed in isolation")
    if not outcome.executed:
        return ("skipped", 0, _skip_detail(outcome))
    if outcome.status == "ok":
        return (
            "transient", 1,
            f"isolated re-run succeeded; the {event.kind} did not "
            f"reproduce (deep trace captured, "
            f"{outcome.run.records} record(s))",
        )
    return (
        "persistent", 1,
        f"isolated re-run failed again ({outcome.error_type}: "
        f"{outcome.message}); deep trace captured for the post-mortem",
    )


CONFIRM_ENVIRONMENT = Playbook(
    name="confirm-environment",
    doc="re-run a flagged cell with its fault plan stripped; a "
        "diverging digest pins the root cause on the environment, an "
        "identical one (or no plan at all) on the configuration",
    trigger=TRIGGER_FINDING,
    matches=lambda event: True,
    run=_confirm_environment,
)

RELAX_WATCHDOG = Playbook(
    name="relax-watchdog",
    doc="retry a watchdog-quarantined job with every budget scaled "
        f"x{WATCHDOG_SLACK:g}; success means the budget was too tight, "
        "another blowout a genuine runaway",
    trigger=TRIGGER_QUARANTINE,
    matches=lambda event: event.error_type == "WatchdogError",
    run=_relax_watchdog,
)

ISOLATE_AND_RERUN = Playbook(
    name="isolate-and-rerun",
    doc="re-run any other quarantined job serially with tracing forced "
        "on, capturing a deep trace; classifies the failure transient "
        "or persistent",
    trigger=TRIGGER_QUARANTINE,
    matches=lambda event: event.error_type != "WatchdogError",
    run=_isolate_and_rerun,
)

#: Registry, in the default (deterministic) firing order.
PLAYBOOKS: dict[str, Playbook] = {
    playbook.name: playbook
    for playbook in (CONFIRM_ENVIRONMENT, RELAX_WATCHDOG, ISOLATE_AND_RERUN)
}


def resolve_playbooks(names) -> tuple[Playbook, ...]:
    """Playbook objects for ``names`` (strings pass through the
    registry; :class:`Playbook` instances are taken as-is), keeping the
    given order.  ``None`` means every registered playbook."""
    if names is None:
        return tuple(PLAYBOOKS.values())
    resolved = []
    for name in names:
        if isinstance(name, Playbook):
            resolved.append(name)
            continue
        playbook = PLAYBOOKS.get(name)
        if playbook is None:
            raise RemedyError(
                f"unknown playbook {name!r}; choose from {sorted(PLAYBOOKS)}"
            )
        resolved.append(playbook)
    if not resolved:
        raise RemedyError("playbook list must not be empty")
    return tuple(resolved)


def load_playbook_config(path) -> tuple[tuple[Playbook, ...], int]:
    """``(playbooks, budget)`` from a JSON playbook config file.

    The document is a ``repro-remedy-config-v1`` object
    (:data:`repro.remedy.schema.CONFIG_DOCUMENT`); every field is
    optional, and an unknown key is an error.
    """
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise RemedyError(f"{path}: unreadable playbook config: {exc}") from exc
    except ValueError as exc:
        raise RemedyError(f"{path}: invalid JSON: {exc}") from exc
    problems = check_fields(
        document, CONFIG_DOCUMENT["config"]["fields"], str(path)
    )
    if not problems:
        if document.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            problems.append(
                f"{path}: schema is {document['schema']!r}, "
                f"expected {CONFIG_SCHEMA!r}"
            )
        if document.get("budget", 0) < 0:
            problems.append(
                f"{path}: budget must be a non-negative integer, "
                f"got {document['budget']!r}"
            )
    require_valid(problems, CONFIG_SCHEMA, RemedyError)
    try:
        playbooks = resolve_playbooks(document.get("playbooks"))
    except RemedyError as exc:
        raise RemedyError(f"{path}: {exc}") from exc
    return playbooks, document.get("budget", DEFAULT_BUDGET)
