"""repro-profile-v1: the profiler's document, its validator and CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.profiling import (
    PROFILE_SCHEMA,
    profile_run,
    shape_config,
    validate_profile,
)


@pytest.fixture(scope="module")
def profile():
    return profile_run(shape_config("fig2", measure_ms=5), top_n=5)


@pytest.fixture
def document(profile):
    return copy.deepcopy(profile)


def test_profile_run_emits_a_valid_document(document):
    assert validate_profile(document) == []
    assert document["schema"] == PROFILE_SCHEMA
    assert len(document["top"]) == 5


@pytest.mark.parametrize("field", ["schema", "events_executed", "top"])
def test_missing_field_reported(document, field):
    del document[field]
    assert f"profile: missing field {field!r}" in validate_profile(document)


@pytest.mark.parametrize("field, value", [
    ("shape", 3),
    ("events_executed", True),
    ("events_executed", 1.5),
    ("wall_seconds", "slow"),
    ("events_per_sec", "fast"),
    ("top", {}),
])
def test_mistyped_field_reported(document, field, value):
    document[field] = value
    problems = validate_profile(document)
    assert any(p.startswith(f"profile: field {field!r} must be ")
               for p in problems), problems


@pytest.mark.parametrize("field, value", [
    ("ncalls", True),
    ("ncalls", "many"),
    ("cumtime", None),
    ("function", 7),
])
def test_mistyped_row_field_reported(document, field, value):
    document["top"][2][field] = value
    problems = validate_profile(document)
    assert any(p.startswith(f"top[2]: field {field!r} must be ")
               for p in problems), problems


def test_unexpected_fields_reported(document):
    document["extra"] = 1
    document["top"][0]["hits"] = 2
    problems = validate_profile(document)
    assert "profile: unexpected fields ['extra']" in problems
    assert "top[0]: unexpected fields ['hits']" in problems


def test_every_bad_field_reported_at_once(document):
    document.update(events_executed=True, events_per_sec="fast", extra=1)
    document["top"][0]["ncalls"] = True
    problems = validate_profile(document)
    assert len(problems) == 4, problems
    for name in ("events_executed", "events_per_sec", "extra", "ncalls"):
        assert any(name in p for p in problems), name


def test_wrong_schema_reported(document):
    document["schema"] = "repro-profile-v0"
    problems = validate_profile(document)
    assert len(problems) == 1 and "repro-profile-v0" in problems[0]


def test_cumtime_order_break_reported(document):
    document["top"][3]["cumtime"] = document["top"][0]["cumtime"] + 1.0
    assert validate_profile(document) == [
        "top[3]: breaks the cumtime descending order"
    ]


def test_non_object_rejected():
    assert validate_profile(["not", "a", "profile"]) == [
        "profile: must be an object, got list"
    ]


def test_cli_validate_exit_codes(document, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(document))
    assert main(["profile", "--validate", str(good)]) == 0
    assert "repro-profile-v1 OK" in capsys.readouterr().out

    document["top"][0]["ncalls"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert main(["profile", "--validate", str(bad)]) == 1
    assert "'ncalls'" in capsys.readouterr().err
