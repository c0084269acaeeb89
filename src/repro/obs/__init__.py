"""repro.obs — the unified observability layer.

The paper's whole mechanism is measurement (TRACK/GETAVGS counters, the
§3.2 estimate, the §4–§5 toggling decisions built on it); this package
makes that machinery inspectable without perturbing it:

- :mod:`~repro.obs.tracer` — :class:`Tracer`: typed trace records under
  the versioned ``repro-trace-v1`` schema, zero-overhead when disabled
  (the shared :data:`NULL_TRACER` is what instrumented components hold
  by default).
- :mod:`~repro.obs.schema` — the schema itself (:data:`RECORD_TYPES`)
  plus stream validation; ``docs/OBSERVABILITY.md`` is generated from
  it, so docs and code cannot drift.
- :mod:`~repro.obs.sinks` — in-memory list/ring sinks and the JSONL
  file sink the ``repro trace`` CLI reads back.
- :mod:`~repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry`, snapshotted as ``repro-metrics-v1`` into
  experiment JSON; :func:`collect_run_metrics` harvests the standard
  catalog from a finished testbed.
- :mod:`~repro.obs.log` — :class:`ProgressLog`: experiment progress on
  stderr, silenced by ``--quiet``, mirrored into the trace.
- :mod:`~repro.obs.instrument` — deep per-syscall socket tracing via
  the :class:`~repro.tcp.instrumentation.SocketInstrument` hooks.

Invariant: with tracing and metrics disabled (the default), every
experiment output is byte-identical to a build without this package —
emit sites cost one attribute read, draw no randomness, and schedule no
events.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TraceInstrument": ".instrument",
    "attach_deep_tracing": ".instrument",
    "NULL_LOG": ".log",
    "ProgressLog": ".log",
    "METRICS_SCHEMA": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "collect_run_metrics": ".metrics",
    "require_valid_metrics": ".metrics",
    "validate_metrics": ".metrics",
    "RECORD_TYPES": ".schema",
    "SCHEMA": ".schema",
    "require_valid_stream": ".schema",
    "validate_record": ".schema",
    "validate_stream": ".schema",
    "filter_records": ".report",
    "render_summary": ".report",
    "summarize_records": ".report",
    "JsonlSink": ".sinks",
    "JsonlTail": ".sinks",
    "ListSink": ".sinks",
    "RingSink": ".sinks",
    "iter_records": ".sinks",
    "read_jsonl": ".sinks",
    "NULL_TRACER": ".tracer",
    "Tracer": ".tracer",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
