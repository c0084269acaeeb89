"""Declarative campaign specs and the ablation/importance engine.

A campaign spec (``repro-campaign-v1``, YAML or JSON) names a scenario,
a set of toggleable components, tweak variants, sweep axes, metrics,
and repetitions; :func:`expand` turns it into a deterministic run
matrix, :func:`run_spec` executes the matrix through the supervised
runner with content-addressed dedupe and checkpointing, and the result
is a ``repro-importance-v1`` component leaderboard.  See
``docs/CAMPAIGNS.md`` for the spec reference.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CampaignRun": ".engine",
    "build_cells": ".engine",
    "run_spec": ".engine",
    "compute_importance": ".importance",
    "MatrixCell": ".matrix",
    "RunMatrix": ".matrix",
    "expand": ".matrix",
    "ImportanceReport": ".report",
    "IMPORTANCE_SCHEMA": ".schema",
    "SPEC_SCHEMA": ".schema",
    "validate_importance_document": ".schema",
    "validate_spec_document": ".schema",
    "SCENARIOS": ".spec",
    "CampaignSpec": ".spec",
    "ComponentSpec": ".spec",
    "Scenario": ".spec",
    "SweepSpec": ".spec",
    "TweakSpec": ".spec",
    "load_document": ".spec",
    "load_spec": ".spec",
    "parse_spec": ".spec",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
