"""Schema validation: records and streams against repro-trace-v1."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.schema import (
    RECORD_TYPES,
    SCHEMA,
    require_valid_stream,
    validate_record,
    validate_stream,
)

HEADER = {
    "t": 0, "type": "trace.header", "src": "tracer",
    "schema": SCHEMA, "label": None,
}
DECISION = {
    "t": 4_000_000, "type": "toggler.decision", "src": "toggler",
    "tick": 1, "mode": True, "prev_mode": False, "toggled": True,
    "explored": False, "phase": "measure", "sample_latency_ns": 123.0,
    "ewma": {"nagle_off": {}, "nagle_on": {}},
}


class TestValidateRecord:
    def test_valid_header(self):
        assert validate_record(HEADER) == []

    def test_valid_decision(self):
        assert validate_record(DECISION) == []

    def test_non_dict_rejected(self):
        assert validate_record([1, 2, 3])

    def test_missing_common_field(self):
        record = dict(DECISION)
        del record["src"]
        assert any("src" in p for p in validate_record(record))

    def test_missing_typed_field(self):
        record = dict(DECISION)
        del record["ewma"]
        assert any("ewma" in p for p in validate_record(record))

    def test_unknown_type(self):
        record = {"t": 0, "type": "nope.nope", "src": "x"}
        assert any("unknown record type" in p for p in validate_record(record))

    def test_extra_field_rejected(self):
        record = dict(DECISION, surprise=1)
        assert any("surprise" in p for p in validate_record(record))

    def test_wrong_type_rejected(self):
        record = dict(DECISION, tick="one")
        assert any("tick" in p for p in validate_record(record))

    def test_bool_is_not_int(self):
        # int fields must not silently accept True/False.
        record = dict(DECISION, tick=True)
        assert any("tick" in p for p in validate_record(record))

    def test_nullable_fields_accept_null(self):
        record = dict(DECISION, sample_latency_ns=None)
        assert validate_record(record) == []

    def test_every_type_has_doc_and_fields(self):
        for rtype, spec in RECORD_TYPES.items():
            assert spec["doc"], rtype
            assert spec["fields"], rtype


def _valid_record(rtype: str) -> dict:
    """A record of ``rtype`` that fills every field with a value of its
    first listed type."""
    samples = {str: "x", int: 1, float: 1.5, bool: False, dict: {},
               list: [], object: None, type(None): None}
    record = {"t": 0, "type": rtype, "src": "test"}
    for name, (types, _) in RECORD_TYPES[rtype]["fields"].items():
        first = types[0] if isinstance(types, tuple) else types
        record[name] = samples[first]
    return record


#: Every (record type, field) whose type tuple admits an int.
NUMERIC_TUPLE_FIELDS = [
    (rtype, name)
    for rtype, spec in RECORD_TYPES.items()
    for name, (types, _) in spec["fields"].items()
    if isinstance(types, tuple) and int in types
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "rtype, name", NUMERIC_TUPLE_FIELDS,
    ids=[f"{rtype}.{name}" for rtype, name in NUMERIC_TUPLE_FIELDS],
)
def test_bool_rejected_in_numeric_trace_field(rtype, name, value):
    record = _valid_record(rtype)
    assert validate_record(record) == []
    problems = validate_record(dict(record, **{name: value}))
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{rtype}: field {name!r} must be ")
    assert problems[0].endswith(", got bool")


class TestValidateStream:
    def test_header_first_required(self):
        problems = validate_stream([DECISION, HEADER])
        assert any("trace.header" in p for p in problems)

    def test_wrong_schema_version(self):
        bad = dict(HEADER, schema="repro-trace-v0")
        assert any("repro-trace-v0" in p for p in validate_stream([bad]))

    def test_non_object_header_reported_not_raised(self):
        assert validate_stream([[1, 2]]) == [
            "record 0: stream must start with a trace.header",
            "record 0: record: must be an object, got list",
        ]

    def test_empty_stream_rejected(self):
        assert validate_stream([]) == ["stream is empty (no header)"]

    def test_valid_stream(self):
        assert validate_stream([HEADER, DECISION]) == []

    def test_require_valid_stream_raises(self):
        with pytest.raises(ObservabilityError):
            require_valid_stream([DECISION])
        require_valid_stream([HEADER, DECISION])  # no raise
