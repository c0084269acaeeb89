"""The field-table checker every repro-*-v1 validator shares."""

from __future__ import annotations

import pytest

from repro._fields import REQUIRED, check_fields, require_valid, type_name

FIELDS = {
    "count": (int, "a count"),
    "ratio": ((int, float), "a number"),
    "label": ((str, type(None)), "nullable text"),
    "flag": (bool, "a switch"),
    "payload": (object, "anything"),
}
VALID = {"count": 1, "ratio": 0.5, "label": None, "flag": True, "payload": [1]}


def test_valid_object_has_no_problems():
    assert check_fields(VALID, FIELDS, "x") == []


def test_type_names():
    assert [type_name(row[0]) for row in FIELDS.values()] == [
        "int", "int | float", "str | null", "bool", "any",
    ]


@pytest.mark.parametrize("name, value", [
    ("count", True),
    ("count", 1.0),
    ("ratio", False),
    ("ratio", "1"),
    ("label", 3),
    ("flag", 1),
])
def test_type_rule_rejects(name, value):
    assert check_fields(dict(VALID, **{name: value}), FIELDS, "x") == [
        f"x: field {name!r} must be {type_name(FIELDS[name][0])}, "
        f"got {type(value).__name__}"
    ]


@pytest.mark.parametrize("name, value", [
    ("ratio", 3),
    ("label", "a"),
    ("flag", False),
    ("payload", None),
    ("payload", True),
])
def test_type_rule_accepts(name, value):
    assert check_fields(dict(VALID, **{name: value}), FIELDS, "x") == []


def test_missing_and_unexpected_fields():
    obj = dict(VALID, zeta=1, alpha=2)
    del obj["count"]
    assert check_fields(obj, FIELDS, "x") == [
        "x: missing field 'count'",
        "x: unexpected fields ['alpha', 'zeta']",
    ]
    assert check_fields(obj, FIELDS, "x", also=("alpha", "zeta")) == [
        "x: missing field 'count'",
    ]


def test_a_default_makes_a_field_optional():
    fields = {"name": (str, REQUIRED, "required"), "seed": (int, "1", "")}
    assert check_fields({}, fields, "spec") == ["spec: missing field 'name'"]
    assert check_fields({"name": "n", "seed": True}, fields, "spec") == [
        "spec: field 'seed' must be int, got bool",
    ]


def test_non_object_rejected():
    assert check_fields([1], FIELDS, "x") == ["x: must be an object, got list"]


def test_require_valid_lists_the_first_twenty():
    require_valid([], "repro-x-v1", ValueError)  # no raise
    with pytest.raises(ValueError) as err:
        require_valid([f"p{i}" for i in range(25)], "repro-x-v1", ValueError)
    message = str(err.value)
    assert message.startswith("document does not conform to repro-x-v1:\n")
    assert "  p19\n" in message and "p20" not in message
    assert message.endswith("\n  ... and 5 more")
