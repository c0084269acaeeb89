"""The ``repro-campaign-v1`` spec and ``repro-importance-v1`` report schemas.

A campaign spec is a declarative JSON/YAML document describing a full
ablation/sweep study: which scenario to run, which *components* can be
toggled, which named *tweaks* and *sweep* axes to cross against them,
which metrics to harvest, and how many repetitions to take.  The engine
(:mod:`repro.campaign.engine`) expands the spec into a deterministic
run matrix and reduces the results into a ``repro-importance-v1``
report ranking components by how much the metrics move when each one is
removed from (or added to) the system.

This module is the *single source of truth* for both document layouts:
:func:`validate_spec_document` and :func:`validate_importance_document`
check documents against the tables below, and ``tools/check_docs.py``
regenerates the field tables embedded in ``docs/CAMPAIGNS.md`` from the
same structures, so the documentation cannot drift from the code.

Both are field tables as :mod:`repro._fields` reads them.  Spec
sections add a default column, ``name -> (types, default, description)``,
where ``default`` is :data:`REQUIRED` for mandatory fields, else the
documented default value rendered into the spec reference.
"""

from __future__ import annotations

from repro._fields import REQUIRED, check_fields

SPEC_SCHEMA = "repro-campaign-v1"
IMPORTANCE_SCHEMA = "repro-importance-v1"

#: The matrix variant families, in canonical expansion order.
MATRIX_FAMILIES = ("baseline", "all_on", "all_but_one", "only_one")

#: Spec sections: the top-level object plus each nested object kind.
SPEC_SECTIONS: dict[str, dict] = {
    "spec": {
        "doc": (
            "The top-level campaign object (one per file). Unknown "
            "keys are rejected, so typos fail loudly instead of "
            "silently changing the matrix."
        ),
        "fields": {
            "schema": (str, REQUIRED, f"always ``{SPEC_SCHEMA!r}``"),
            "name": (str, REQUIRED, "campaign name, echoed in the report"),
            "scenario": (
                str, "'run'",
                "what one cell executes: one of the registered scenario "
                "shapes (``run``, ``fig2``, ``fanin``, ``faults``, "
                "``timevarying``)",
            ),
            "base": (
                dict, "{}",
                "config overrides applied to every cell before any "
                "component/tweak/sweep override (see the override key "
                "space per scenario)",
            ),
            "components": (
                list, "[]",
                "``component`` objects: the on/off axes the importance "
                "engine ablates",
            ),
            "tweaks": (
                list, "[]",
                "``tweak`` objects: named explicit variants crossed "
                "against the component matrix (empty means one implicit "
                "no-op tweak)",
            ),
            "sweeps": (
                list, "[]",
                "``sweep`` objects: explicit axes crossed against every "
                "variant (cross product, in spec order)",
            ),
            "matrix": (
                list, "[all four]",
                "variant families to expand, a subset of "
                "``baseline | all_on | all_but_one | only_one``, "
                "expanded in the order given",
            ),
            "metrics": (
                list, REQUIRED,
                "metric names harvested from each cell's result; the "
                "admissible names depend on the scenario",
            ),
            "repetitions": (
                int, "1",
                "seeds per cell: repetition ``r`` runs with seed "
                "``seed + r``",
            ),
            "seed": (int, "1", "base seed for repetition 0"),
        },
    },
    "component": {
        "doc": (
            "One ablatable component: a named pair of override sets. "
            "``on`` is applied when the component is enabled, ``off`` "
            "when it is disabled (both may be empty; omitting a side "
            "means \"leave the base config alone\")."
        ),
        "fields": {
            "name": (str, REQUIRED, "unique component name"),
            "on": (dict, "{}", "overrides applied when enabled"),
            "off": (dict, "{}", "overrides applied when disabled"),
        },
    },
    "tweak": {
        "doc": (
            "One named explicit variant (the A7 ``off``/``nagle``/"
            "``minshall``/``autocork`` shape): its overrides are applied "
            "below ``base`` and above nothing else, and every variant "
            "family is expanded once per tweak."
        ),
        "fields": {
            "name": (str, REQUIRED, "unique tweak name"),
            "overrides": (dict, "{}", "config overrides for this tweak"),
        },
    },
    "sweep": {
        "doc": (
            "One explicit sweep axis. Multiple sweeps cross-product in "
            "spec order; each value is assigned to ``field`` through the "
            "scenario's override key space."
        ),
        "fields": {
            "field": (str, REQUIRED, "override key to sweep"),
            "values": (list, REQUIRED, "values, expanded in spec order"),
        },
    },
}

#: Importance-report sections (the ``repro-importance-v1`` document).
IMPORTANCE_DOCUMENT: dict[str, dict] = {
    "report": {
        "doc": (
            "The top-level report object. Canonical JSON (sorted keys, "
            "no whitespace), so two runs of the same spec byte-compare. "
            "Deliberately excludes execution accounting (cache hits, "
            "dedupe counts): those vary across reruns and live in the "
            "CLI summary instead."
        ),
        "fields": {
            "schema": (str, f"always ``{IMPORTANCE_SCHEMA!r}``"),
            "campaign": (str, "the spec's ``name``"),
            "scenario": (str, "the spec's ``scenario``"),
            "spec_digest": (
                str,
                "sha256 of the canonical parsed spec — two reports "
                "with equal digests ran the same campaign",
            ),
            "seed": (int, "the spec's base seed"),
            "repetitions": (int, "the spec's repetition count"),
            "cells": (int, "expanded matrix size"),
            "metrics": (list, "metric names, in spec order"),
            "baseline": (
                dict,
                "per-metric mean over the ``baseline`` cells (null "
                "when the family is absent or the metric undefined)",
            ),
            "all_on": (
                dict,
                "per-metric mean over the ``all_on`` cells (null as "
                "above)",
            ),
            "components": (
                list,
                "``component`` entries ranked most-important first",
            ),
            "ranking": (
                list,
                "component names, most important first (ties broken "
                "by name; scoreless components last)",
            ),
        },
    },
    "component": {
        "doc": "One component's importance breakdown.",
        "fields": {
            "name": (str, "component name"),
            "score": (
                (float, int, type(None)),
                "mean of the per-metric importance values (null when "
                "no metric produced one)",
            ),
            "metrics": (
                dict,
                "metric name -> ``metric-entry`` object",
            ),
        },
    },
    "metric-entry": {
        "doc": (
            "One (component, metric) cell of the importance math: the "
            "two deltas against the full and empty systems, and their "
            "normalized combination."
        ),
        "fields": {
            "ablate_delta": (
                (float, int, type(None)),
                "mean(all_but_one) - mean(all_on): what removing the "
                "component from the full system does (null when either "
                "family mean is unavailable)",
            ),
            "solo_delta": (
                (float, int, type(None)),
                "mean(only_one) - mean(baseline): what the component "
                "alone adds to the empty system (null as above)",
            ),
            "importance": (
                (float, int, type(None)),
                "mean of |delta| / norm over the available deltas, "
                "where norm = max(|baseline mean|, 1e-9) (falling back "
                "to the all_on mean when baseline is unavailable)",
            ),
        },
    },
}


def validate_spec_document(document) -> list[str]:
    """Structural problems with a spec document (empty when valid).

    Checks the document layout only — field presence, types, unknown
    keys, matrix-family names.  Scenario-dependent semantics (metric
    names, override keys) are checked by
    :func:`repro.campaign.spec.parse_spec`, which needs the scenario
    registry.
    """
    problems = check_fields(document, SPEC_SECTIONS["spec"]["fields"], "spec")
    if not isinstance(document, dict):
        return problems
    if document.get("schema") not in (None, SPEC_SCHEMA):
        problems.append(
            f"spec: schema must be {SPEC_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    for section, key in (
        ("component", "components"), ("tweak", "tweaks"), ("sweep", "sweeps"),
    ):
        entries = document.get(key, [])
        if not isinstance(entries, list):
            continue  # already reported by the type check above
        for index, entry in enumerate(entries):
            problems += check_fields(
                entry, SPEC_SECTIONS[section]["fields"], f"{key}[{index}]"
            )
    matrix = document.get("matrix")
    if isinstance(matrix, list):
        for family in matrix:
            if family not in MATRIX_FAMILIES:
                problems.append(
                    f"spec: unknown matrix family {family!r}; choose from "
                    f"{list(MATRIX_FAMILIES)}"
                )
    metrics = document.get("metrics")
    if isinstance(metrics, list) and not metrics:
        problems.append("spec: metrics must name at least one metric")
    sweeps = document.get("sweeps")
    if isinstance(sweeps, list):
        for index, sweep in enumerate(sweeps):
            if isinstance(sweep, dict) and sweep.get("values") == []:
                problems.append(
                    f"sweeps[{index}]: values must be non-empty"
                )
    names = [
        entry.get("name") for entry in document.get("components", [])
        if isinstance(entry, dict)
    ]
    if len(names) != len(set(names)):
        problems.append("spec: component names must be unique")
    tweak_names = [
        entry.get("name") for entry in document.get("tweaks", [])
        if isinstance(entry, dict)
    ]
    if len(tweak_names) != len(set(tweak_names)):
        problems.append("spec: tweak names must be unique")
    return problems


def validate_importance_document(document) -> list[str]:
    """Structural problems with an importance report (empty when valid)."""
    problems = check_fields(
        document, IMPORTANCE_DOCUMENT["report"]["fields"], "report"
    )
    if not isinstance(document, dict):
        return problems
    if document.get("schema") != IMPORTANCE_SCHEMA:
        problems.append(
            f"report: schema must be {IMPORTANCE_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    metrics = document.get("metrics", [])
    components = document.get("components", [])
    if isinstance(components, list):
        for index, entry in enumerate(components):
            where = f"components[{index}]"
            problems += check_fields(
                entry, IMPORTANCE_DOCUMENT["component"]["fields"], where
            )
            cells = entry.get("metrics") if isinstance(entry, dict) else None
            if not isinstance(cells, dict):
                continue
            for metric, cell in cells.items():
                if isinstance(metrics, list) and metric not in metrics:
                    problems.append(
                        f"{where}: metric {metric!r} not in the report's "
                        f"metric list"
                    )
                problems += check_fields(
                    cell, IMPORTANCE_DOCUMENT["metric-entry"]["fields"],
                    f"{where}.metrics[{metric!r}]",
                )
    ranking = document.get("ranking")
    if isinstance(ranking, list) and isinstance(components, list):
        names = [
            entry.get("name") for entry in components
            if isinstance(entry, dict)
        ]
        if sorted(str(n) for n in ranking) != sorted(str(n) for n in names):
            problems.append(
                "report: ranking must be a permutation of the component "
                "names"
            )
    return problems
