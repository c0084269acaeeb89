"""repro.diagnose — always-on diagnosis over the trace stream.

The observability layer (PR: repro.obs) made every run narrate itself as
``repro-trace-v1`` records; this package closes the loop by *reading*
that narration back, always-on, and saying what is wrong — the
Dapper-style diagnosis service from ROADMAP.md:

- :mod:`~repro.diagnose.classifier` — :class:`StreamingClassifier`: one
  single-pass run over a trace stream (file, live tail, or in-memory
  sink); per-connection state machines label each socket pair
  sender-/network-/receiver-limited and detect misbehavior episodes
  (loss, blackout, stall, stale exchange, frozen/oscillating toggler,
  estimator divergence).  Same records in, byte-identical report out.
- :mod:`~repro.diagnose.rules` — the decision rules and their tunable
  thresholds (:class:`DiagnosisConfig`), golden-trace safe by default.
- :mod:`~repro.diagnose.report` / :mod:`~repro.diagnose.schema` — the
  typed ``repro-diagnosis-v1`` report, canonical serialization, and
  validation.
- :mod:`~repro.diagnose.follow` — deterministic live tailing of a
  growing JSONL sink (the ``repro diagnose --follow`` engine).
- :mod:`~repro.diagnose.hook` — :class:`DiagnosisHook`: scores each
  supervised job's trace segment as it completes, records ``diagnose.*``
  metrics and ``diagnosis.verdict`` records, and can escalate
  pathological verdicts into the supervisor's quarantine path.
- :mod:`~repro.diagnose.scoring` — detection recall/precision of a
  report against the injector's labeled fault episodes (the
  ``repro-robustness-v1`` ground truth).

Detection never reads ``fault.verdict`` records: those are the
injector's own narration — the ground truth the scoring compares
against — and consuming them would make every detection circular.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "StreamingClassifier": ".classifier",
    "diagnose_records": ".classifier",
    "follow_trace": ".follow",
    "DiagnosisHook": ".hook",
    "ConnectionVerdict": ".report",
    "DiagnosisReport": ".report",
    "Finding": ".report",
    "RunReport": ".report",
    "SCHEMA": ".report",
    "render_report": ".report",
    "DiagnosisConfig": ".rules",
    "FINDING_CLASSES": ".rules",
    "require_valid_report": ".schema",
    "validate_report": ".schema",
    "score_report": ".scoring",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
