"""Playbook unit tests: verdict logic, registry, and config loading."""

from __future__ import annotations

import json

import pytest

from repro.errors import RemedyError
from repro.remedy import (
    DEFAULT_BUDGET,
    PLAYBOOKS,
    TRIGGER_FINDING,
    TRIGGER_QUARANTINE,
    FlaggedJob,
    ProbeOutcome,
    ProbeRun,
    QuarantinedJob,
    load_playbook_config,
    resolve_playbooks,
    result_digest,
)
from repro.remedy.playbooks import (
    CONFIRM_ENVIRONMENT,
    ISOLATE_AND_RERUN,
    RELAX_WATCHDOG,
)


def _flagged(result=None):
    return FlaggedJob(
        index=0, key="k" * 64, label="cell", findings=2,
        classes=("loss",), result=result,
    )


def _quarantined(error_type="WatchdogError"):
    return QuarantinedJob(
        index=1, key="q" * 64, label="bad cell", kind="poison",
        error_type=error_type, message="boom",
    )


def _probe_returning(outcome):
    calls = []

    def probe(edit):
        calls.append(edit)
        return outcome

    probe.calls = calls
    return probe


class TestRegistry:
    def test_registry_order_is_deterministic(self):
        assert list(PLAYBOOKS) == [
            "confirm-environment", "relax-watchdog", "isolate-and-rerun",
        ]

    def test_resolve_none_is_the_full_registry(self):
        assert resolve_playbooks(None) == tuple(PLAYBOOKS.values())

    def test_resolve_keeps_given_order(self):
        resolved = resolve_playbooks(["relax-watchdog", "confirm-environment"])
        assert [p.name for p in resolved] == [
            "relax-watchdog", "confirm-environment",
        ]

    def test_resolve_passes_playbook_objects_through(self):
        assert resolve_playbooks([RELAX_WATCHDOG]) == (RELAX_WATCHDOG,)

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(RemedyError, match="unknown playbook"):
            resolve_playbooks(["reboot-the-universe"])

    def test_resolve_rejects_empty_list(self):
        with pytest.raises(RemedyError, match="must not be empty"):
            resolve_playbooks([])

    def test_triggers(self):
        assert CONFIRM_ENVIRONMENT.trigger == TRIGGER_FINDING
        assert RELAX_WATCHDOG.trigger == TRIGGER_QUARANTINE
        assert ISOLATE_AND_RERUN.trigger == TRIGGER_QUARANTINE

    def test_match_predicates_route_by_error_type(self):
        watchdog = _quarantined("WatchdogError")
        other = _quarantined("RuntimeError")
        assert RELAX_WATCHDOG.matches(watchdog)
        assert not RELAX_WATCHDOG.matches(other)
        assert ISOLATE_AND_RERUN.matches(other)
        assert not ISOLATE_AND_RERUN.matches(watchdog)


class TestResultDigest:
    def test_equal_results_share_a_digest(self):
        assert result_digest({"a": 1}) == result_digest({"a": 1})

    def test_different_results_diverge(self):
        assert result_digest({"a": 1}) != result_digest({"a": 2})


class TestConfirmEnvironment:
    def test_inapplicable_is_config_with_zero_probes(self):
        # The zero-misclassification guarantee: a cell with no fault
        # plan to strip can never be blamed on the environment.
        probe = _probe_returning(ProbeOutcome(status="inapplicable"))
        verdict, probes, detail = CONFIRM_ENVIRONMENT.run(_flagged(), probe)
        assert (verdict, probes) == ("config", 0)
        assert "by construction" in detail
        assert probe.calls == ["strip-faults"]

    def test_diverging_digest_is_environment(self):
        probe = _probe_returning(
            ProbeOutcome(status="ok", run=ProbeRun(result={"x": 2}))
        )
        verdict, probes, detail = CONFIRM_ENVIRONMENT.run(
            _flagged(result={"x": 1}), probe,
        )
        assert (verdict, probes) == ("environment", 1)
        assert "diverged" in detail

    def test_matching_digest_is_config(self):
        probe = _probe_returning(
            ProbeOutcome(status="ok", run=ProbeRun(result={"x": 1}))
        )
        verdict, probes, _ = CONFIRM_ENVIRONMENT.run(
            _flagged(result={"x": 1}), probe,
        )
        assert (verdict, probes) == ("config", 1)

    def test_failed_probe_is_config(self):
        probe = _probe_returning(ProbeOutcome(
            status="failed", error_type="RuntimeError", message="died",
        ))
        verdict, probes, detail = CONFIRM_ENVIRONMENT.run(_flagged(), probe)
        assert (verdict, probes) == ("config", 1)
        assert "RuntimeError" in detail

    def test_budget_exhaustion_is_skipped(self):
        probe = _probe_returning(ProbeOutcome(status="budget"))
        verdict, probes, detail = CONFIRM_ENVIRONMENT.run(_flagged(), probe)
        assert (verdict, probes) == ("skipped", 0)
        assert "budget" in detail

    def test_no_prober_is_skipped(self):
        probe = _probe_returning(ProbeOutcome(status="no-prober"))
        verdict, probes, detail = CONFIRM_ENVIRONMENT.run(_flagged(), probe)
        assert (verdict, probes) == ("skipped", 0)
        assert "no prober" in detail


class TestRelaxWatchdog:
    def test_success_under_slack_recovers(self):
        probe = _probe_returning(
            ProbeOutcome(status="ok", run=ProbeRun(result=1))
        )
        verdict, probes, _ = RELAX_WATCHDOG.run(_quarantined(), probe)
        assert (verdict, probes) == ("recovered-with-slack", 1)
        assert probe.calls == ["relax-watchdog"]

    def test_repeat_blowout_is_persistent(self):
        probe = _probe_returning(ProbeOutcome(
            status="failed", error_type="WatchdogError", message="again",
        ))
        verdict, probes, detail = RELAX_WATCHDOG.run(_quarantined(), probe)
        assert (verdict, probes) == ("persistent", 1)
        assert "runaway" in detail

    def test_no_watchdog_is_skipped(self):
        probe = _probe_returning(ProbeOutcome(status="inapplicable"))
        verdict, probes, _ = RELAX_WATCHDOG.run(_quarantined(), probe)
        assert (verdict, probes) == ("skipped", 0)


class TestIsolateAndRerun:
    def test_clean_rerun_is_transient(self):
        probe = _probe_returning(
            ProbeOutcome(status="ok", run=ProbeRun(result=1, records=7))
        )
        verdict, probes, detail = ISOLATE_AND_RERUN.run(
            _quarantined("RuntimeError"), probe,
        )
        assert (verdict, probes) == ("transient", 1)
        assert "7 record(s)" in detail
        assert probe.calls == ["traced"]

    def test_repeat_failure_is_persistent(self):
        probe = _probe_returning(ProbeOutcome(
            status="failed", error_type="RuntimeError", message="again",
        ))
        verdict, probes, _ = ISOLATE_AND_RERUN.run(
            _quarantined("RuntimeError"), probe,
        )
        assert (verdict, probes) == ("persistent", 1)


class TestPlaybookConfig:
    def _write(self, tmp_path, document):
        path = tmp_path / "playbooks.json"
        path.write_text(json.dumps(document))
        return path

    def test_full_config_round_trips(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": "repro-remedy-config-v1",
            "playbooks": ["relax-watchdog"],
            "budget": 3,
        })
        playbooks, budget = load_playbook_config(path)
        assert [p.name for p in playbooks] == ["relax-watchdog"]
        assert budget == 3

    def test_defaults_when_fields_omitted(self, tmp_path):
        playbooks, budget = load_playbook_config(self._write(tmp_path, {}))
        assert playbooks == tuple(PLAYBOOKS.values())
        assert budget == DEFAULT_BUDGET

    def test_example_config_is_valid(self):
        import pathlib

        example = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples" / "remedy_playbooks.json"
        )
        playbooks, budget = load_playbook_config(example)
        assert playbooks == tuple(PLAYBOOKS.values())
        assert budget == DEFAULT_BUDGET

    def test_wrong_schema_rejected(self, tmp_path):
        path = self._write(tmp_path, {"schema": "not-a-remedy-config"})
        with pytest.raises(RemedyError, match="schema"):
            load_playbook_config(path)

    @pytest.mark.parametrize("budget", [-1, 1.5, "8", True])
    def test_bad_budget_rejected(self, tmp_path, budget):
        path = self._write(tmp_path, {"budget": budget})
        with pytest.raises(RemedyError, match="budget"):
            load_playbook_config(path)

    def test_unknown_playbook_rejected_with_path(self, tmp_path):
        path = self._write(tmp_path, {"playbooks": ["nope"]})
        with pytest.raises(RemedyError, match="unknown playbook"):
            load_playbook_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(RemedyError, match="invalid JSON"):
            load_playbook_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(RemedyError, match="unreadable"):
            load_playbook_config(tmp_path / "absent.json")

    def test_misspelled_keys_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": "repro-remedy-config-v1",
            "playbook": ["relax-watchdog"],
            "budgt": 1,
        })
        with pytest.raises(RemedyError) as err:
            load_playbook_config(path)
        assert f"{path}: unexpected fields ['budgt', 'playbook']" in str(
            err.value
        )

    def test_non_object_rejected(self, tmp_path):
        path = self._write(tmp_path, ["relax-watchdog"])
        with pytest.raises(RemedyError, match="must be an object"):
            load_playbook_config(path)
