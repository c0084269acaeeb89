"""The ``repro-trace-v1`` record schema: definition and validation.

A trace is a stream of JSON objects (one per line in the JSONL form).
Every record carries three common fields:

- ``t``    — simulated time in integer nanoseconds;
- ``type`` — the record type, one of :data:`RECORD_TYPES`;
- ``src``  — the emitting component instance (e.g. ``redis.0.client``).

The stream's first record must be a ``trace.header`` naming the schema
version, so a reader can reject a file from a different layout before
interpreting anything else.

This module is the *single source of truth* for the schema:
:func:`validate_record` checks records against :data:`RECORD_TYPES`, and
``tools/check_docs.py`` regenerates the schema table embedded in
``docs/OBSERVABILITY.md`` from the same structure, so the documentation
cannot drift from the code.
"""

from __future__ import annotations

from typing import Iterable

from repro._fields import check_fields, require_valid
from repro.errors import ObservabilityError

SCHEMA = "repro-trace-v1"

#: Common fields present on every record.
COMMON_FIELDS = {
    "t": (int, "simulated time, integer nanoseconds"),
    "type": (str, "record type (see the table below)"),
    "src": (str, "emitting component instance"),
}

#: A ``(time, total, integral)`` queue snapshot as carried in records.
_SNAPSHOT = dict

#: Field tables as :mod:`repro._fields` reads them.  Every field listed
#: is required — emitters always write the full record, with ``null``
#: where no value exists.
RECORD_TYPES: dict[str, dict] = {
    "trace.header": {
        "doc": "Stream header; always the first record.",
        "fields": {
            "schema": (str, f"schema version; always {SCHEMA!r}"),
            "label": ((str, type(None)), "free-form run label"),
        },
    },
    "queue.sample": {
        "doc": (
            "Periodic snapshot of one endpoint's three §3.1 queue "
            "states, from the counter collector (the ethtool analogue)."
        ),
        "fields": {
            "unacked": (_SNAPSHOT, "{time,total,integral} of qs_unacked"),
            "unread": (_SNAPSHOT, "{time,total,integral} of qs_unread"),
            "ackdelay": (_SNAPSHOT, "{time,total,integral} of qs_ackdelay"),
        },
    },
    "exchange.send": {
        "doc": "A 36-byte §3.2 metadata state left this endpoint.",
        "fields": {
            "bytes": (int, "option bytes attached to the segment"),
            "demand": (bool, "sent on demand (vs the periodic cadence)"),
            "hint": (bool, "a §3.3 hint state rode along"),
        },
    },
    "exchange.recv": {
        "doc": (
            "A peer state arrived; outcome of the plausibility check "
            "with the unwrapped candidate counters."
        ),
        "fields": {
            "outcome": (str, "'accepted' | 'rejected' | 'rebaselined'"),
            "unacked": (_SNAPSHOT, "unwrapped candidate qs_unacked"),
            "unread": (_SNAPSHOT, "unwrapped candidate qs_unread"),
            "ackdelay": (_SNAPSHOT, "unwrapped candidate qs_ackdelay"),
        },
    },
    "estimator.sample": {
        "doc": (
            "One §3.2 estimate: the four queue-delay inputs and the "
            "combined end-to-end output, with any clamping applied."
        ),
        "fields": {
            "interval_ns": (int, "interval the estimate covers"),
            "local": (dict, "{unacked,unread,ackdelay} delays (ns|null)"),
            "remote": (
                (dict, type(None)),
                "peer delays, null when no remote view existed",
            ),
            "latency_ns": (
                (int, float, type(None)),
                "combined estimate; null when a required input was undefined",
            ),
            "throughput_per_sec": ((int, float), "λ of the local unacked queue"),
            "complete": (bool, "every §3.2 component was defined"),
            "clamped": (
                (str, type(None)),
                "null | 'negative' | 'absurd' — clamp applied to the output",
            ),
        },
    },
    "estimator.reject": {
        "doc": "The estimator discarded its remote view for one sample.",
        "fields": {
            "reason": (str, "'stale' | 'nonmonotonic'"),
            "staleness_ns": (
                (int, type(None)),
                "age of the freshest accepted exchange (stale rejections)",
            ),
        },
    },
    "toggler.decision": {
        "doc": (
            "One §4–§5 controller tick: the sample it observed, the "
            "EWMA state that justified the choice, and the choice."
        ),
        "fields": {
            "tick": (int, "tick index (1-based)"),
            "mode": (bool, "mode after the decision (true = batching on)"),
            "prev_mode": (bool, "mode before the decision"),
            "toggled": (bool, "the mode changed this tick"),
            "explored": (bool, "ε-exploration (vs greedy) pick"),
            "phase": (
                str,
                "'measure' | 'settle' | 'loss-freeze' | 'freeze-hold'",
            ),
            "sample_latency_ns": (
                (int, float, type(None)),
                "this tick's estimate, null when undefined",
            ),
            "ewma": (
                dict,
                "per-arm state: {'nagle_off'|'nagle_on': {latency_ns, "
                "throughput_per_sec, samples}}",
            ),
        },
    },
    "fault.verdict": {
        "doc": (
            "A fault hook acted (verdicts that deliver untouched are "
            "not recorded)."
        ),
        "fields": {
            "layer": (str, "'link' | 'nic' | 'exchange' | 'socket'"),
            "verdict": (
                str,
                "'loss-drop' | 'blackout-drop' | 'jitter' | 'ring-drop' "
                "| 'irq-defer' | 'drop-option' | 'stale-replay' | "
                "'corrupt' | 'stall-on' | 'stall-off'",
            ),
            "delay_ns": (
                (int, type(None)),
                "extra delay for 'jitter'/'irq-defer' verdicts, else null",
            ),
        },
    },
    "tcp.event": {
        "doc": (
            "A protocol tap from a TCP socket, emitted to its host's "
            "tracer."
        ),
        "fields": {
            "event": (
                str,
                "'tx' | 'rx' | 'batching_hold' | 'window_probe' | ...",
            ),
            "detail": (object, "event-specific payload (may be null)"),
        },
    },
    "log.message": {
        "doc": "A progress-log line mirrored into the trace.",
        "fields": {
            "message": (str, "the logged text"),
        },
    },
    "shard.window": {
        "doc": (
            "The windowed engine crossed one lock-step "
            "barrier (see docs/PERFORMANCE.md, 'Intra-run sharding')."
        ),
        "fields": {
            "window": (int, "window index (1-based)"),
            "end_ns": (int, "simulated time the window closed at"),
            "shards": (
                int,
                "jobs the run executed as (1 for a coupled run)",
            ),
            "exchanged": (
                int,
                "cross-component messages collected at this barrier",
            ),
        },
    },
    "job.retry": {
        "doc": (
            "The campaign supervisor scheduled a failed job for another "
            "attempt after its deterministic backoff."
        ),
        "fields": {
            "key": (str, "content digest of the job's config"),
            "index": (int, "job position in the submitted campaign"),
            "attempts": (int, "attempts consumed so far"),
            "kind": (str, "'error' | 'timeout' | 'crash' — what failed"),
            "backoff_s": ((int, float), "embargo before the retry, seconds"),
        },
    },
    "job.timeout": {
        "doc": (
            "A supervised job exceeded its wall-clock budget; its worker "
            "pool was killed."
        ),
        "fields": {
            "key": (str, "content digest of the job's config"),
            "index": (int, "job position in the submitted campaign"),
            "attempts": (int, "attempts consumed so far"),
            "timeout_s": ((int, float), "the per-job wall-clock budget"),
        },
    },
    "job.quarantine": {
        "doc": (
            "A supervised job exhausted its retry budget (or failed a "
            "poison-typed check) and was quarantined as a JobFailure."
        ),
        "fields": {
            "key": (str, "content digest of the job's config"),
            "index": (int, "job position in the submitted campaign"),
            "attempts": (int, "attempts consumed before quarantine"),
            "kind": (str, "'error' | 'timeout' | 'crash'"),
            "error": ((str, type(None)), "exception class name, if any"),
            "message": (str, "the final failure message"),
        },
    },
    "diagnosis.verdict": {
        "doc": (
            "The streaming diagnosis service scored one supervised "
            "job's trace segment (see docs/OBSERVABILITY.md, "
            "'Always-on diagnosis')."
        ),
        "fields": {
            "index": (int, "job position in the submitted campaign"),
            "key": (str, "content digest of the job's config"),
            "connections": (int, "connections diagnosed so far, stream-wide"),
            "findings": (int, "findings attributed to this job's segment"),
            "classes": (list, "distinct finding classes in the segment, sorted"),
            "pathological": (
                bool,
                "a finding class configured as pathological was present",
            ),
        },
    },
    "metrics.snapshot": {
        "doc": (
            "A repro-metrics-v1 registry snapshot, typically appended "
            "once at the end of a traced run."
        ),
        "fields": {
            "metrics": (dict, "the snapshot (see the metrics catalog)"),
        },
    },
    "campaign.plan": {
        "doc": (
            "A campaign spec was expanded and is about to execute "
            "(see docs/CAMPAIGNS.md)."
        ),
        "fields": {
            "campaign": (str, "the spec's campaign name"),
            "scenario": (str, "the scenario the cells run through"),
            "spec_digest": (str, "sha256 of the spec's canonical JSON"),
            "cells": (int, "expanded matrix size"),
            "components": (list, "component names, spec order"),
            "tweaks": (list, "tweak names, spec order"),
            "metrics": (list, "metric names the campaign harvests"),
        },
    },
    "campaign.importance": {
        "doc": (
            "A campaign finished scoring: the repro-importance-v1 "
            "ranking, one record per campaign."
        ),
        "fields": {
            "campaign": (str, "the spec's campaign name"),
            "ranking": (list, "component names, most important first"),
            "scores": (
                dict,
                "component name -> importance score (null when "
                "uncomputable)",
            ),
        },
    },
}


def validate_record(record: dict) -> list[str]:
    """Check one record against the schema; return a list of problems.

    An empty list means the record is valid.  Problems name the field,
    so a failing record can be fixed (or its emitter debugged) without
    re-reading the schema.
    """
    # The type-specific check below reports keys outside both tables.
    problems = check_fields(record, COMMON_FIELDS, "record", also=record)
    rtype = record.get("type") if isinstance(record, dict) else None
    if not isinstance(rtype, str):
        return problems
    spec = RECORD_TYPES.get(rtype)
    if spec is None:
        return problems + [f"unknown record type {rtype!r}"]
    typed = check_fields(record, spec["fields"], rtype, also=COMMON_FIELDS)
    if rtype == "metrics.snapshot" and not typed:
        # Imported here: a tracer loads this module when a testbed is
        # set up, and a run never needs the metrics registry.
        from repro.obs.metrics import validate_metrics

        typed = validate_metrics(record["metrics"])
    return problems + typed


def validate_stream(records: Iterable[dict]) -> list[str]:
    """Validate a whole record stream (header first, every record valid).

    Returns a list of problems prefixed with the record index; empty
    when the stream is a valid ``repro-trace-v1`` trace.
    """
    problems: list[str] = []
    empty = True
    for index, record in enumerate(records):
        empty = False
        if index == 0:
            header = record if isinstance(record, dict) else {}
            if header.get("type") != "trace.header":
                problems.append(
                    "record 0: stream must start with a trace.header"
                )
            elif record.get("schema") != SCHEMA:
                problems.append(
                    f"record 0: header schema is {record.get('schema')!r}, "
                    f"expected {SCHEMA!r}"
                )
        problems.extend(
            f"record {index}: {problem}"
            for problem in validate_record(record)
        )
    if empty:
        problems.append("stream is empty (no header)")
    return problems


def require_valid_stream(records: Iterable[dict]) -> None:
    """Raise :class:`ObservabilityError` unless the stream validates."""
    require_valid(validate_stream(records), SCHEMA, ObservabilityError)
