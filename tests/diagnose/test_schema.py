"""repro-diagnosis-v1 schema validation."""

from __future__ import annotations

import copy

import pytest

from repro.diagnose import (
    diagnose_records,
    require_valid_report,
    validate_report,
)
from repro.errors import DiagnosisError
from tests.diagnose.conftest import header, tcp_tx, toggler_decision


def _document():
    """A real report document with at least one finding and connection."""
    records = [header(label="schema")]
    records += [
        tcp_tx(t * 1_000_000, retransmit=(t % 4 == 0)) for t in range(1, 40)
    ]
    records += [toggler_decision(41_000_000)]
    return diagnose_records(records).to_json()


class TestValidateReport:
    def test_real_reports_validate(self, chaos_traces):
        for plan, (records, _) in chaos_traces.items():
            document = diagnose_records(records).to_json()
            assert validate_report(document) == [], plan

    def test_empty_stream_report_validates(self):
        assert validate_report(diagnose_records([]).to_json()) == []

    def test_non_object_rejected(self):
        assert validate_report([]) != []
        assert validate_report(None) != []

    def test_missing_field_reported(self):
        document = _document()
        del document["summary"]
        assert any("summary" in p for p in validate_report(document))

    def test_wrong_schema_string(self):
        document = _document()
        document["schema"] = "repro-diagnosis-v0"
        assert any("schema" in p for p in validate_report(document))

    def test_unexpected_field_reported(self):
        document = _document()
        document["bonus"] = 1
        assert any("bonus" in p for p in validate_report(document))

    def test_wrong_field_type_reported(self):
        document = _document()
        document["records"] = "many"
        assert any("records" in p for p in validate_report(document))

    def test_bool_is_not_int(self):
        document = _document()
        document["records"] = True
        assert validate_report(document) != []

    def test_unknown_finding_class_rejected(self):
        document = _document()
        assert document["runs"][0]["findings"], "fixture must have findings"
        bad = copy.deepcopy(document)
        bad["runs"][0]["findings"][0]["class"] = "gremlins"
        assert any("gremlins" in p for p in validate_report(bad))

    def test_unknown_verdict_rejected(self):
        document = _document()
        assert document["runs"][0]["connections"], "fixture needs connections"
        bad = copy.deepcopy(document)
        bad["runs"][0]["connections"][0]["verdict"] = "blocked"
        assert any("verdict" in p for p in validate_report(bad))

    def test_inverted_run_interval_rejected(self):
        document = _document()
        document["runs"][0]["start_ns"] = document["runs"][0]["end_ns"] + 1
        assert any("precedes" in p for p in validate_report(document))

    def test_summary_consistency_enforced(self):
        document = _document()
        document["summary"]["findings"] += 1
        document["summary"]["by_class"] = {"loss": 99}
        assert validate_report(document) != []

    def test_non_int_class_counts_reported(self):
        document = _document()
        document["summary"]["by_class"] = {"loss": "1", "stall": True}
        assert validate_report(document) == [
            "summary: by_class['loss'] must be int, got str",
            "summary: by_class['stall'] must be int, got bool",
        ]

    def test_every_problem_reported_in_one_call(self):
        document = _document()
        document["schema"] = "repro-diagnosis-v0"
        document["runs"][0]["start_ns"] = 10
        document["runs"][0]["end_ns"] = 5
        document["summary"]["runs"] = 7
        document["summary"]["findings"] = 3
        assert validate_report(document) == [
            "report: schema is 'repro-diagnosis-v0', expected "
            "'repro-diagnosis-v1'",
            "runs[0]: end_ns precedes start_ns",
            "summary: runs=7 but document has 1",
            "summary: findings=3 but runs hold 1",
        ]

    def test_malformed_run_hides_only_the_counts_it_feeds(self):
        document = _document()
        del document["runs"][0]["findings"]
        document["summary"]["runs"] = 7
        assert validate_report(document) == [
            "runs[0]: missing field 'findings'",
            "summary: runs=7 but document has 1",
        ]


class TestRequireValidReport:
    def test_passes_silently(self):
        require_valid_report(_document())

    def test_raises_with_problem_list(self):
        document = _document()
        del document["runs"]
        with pytest.raises(DiagnosisError, match="runs"):
            require_valid_report(document)
