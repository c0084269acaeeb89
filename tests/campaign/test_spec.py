"""Spec parsing, validation, and the scenario override key space."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    SCENARIOS,
    SPEC_SCHEMA,
    load_spec,
    parse_spec,
    validate_spec_document,
)
from repro.campaign.spec import _build_run
from repro.errors import CampaignSpecError
from repro.units import msecs


def minimal_doc(**extra) -> dict:
    doc = {
        "schema": SPEC_SCHEMA,
        "name": "t",
        "metrics": ["latency_mean_ns"],
    }
    doc.update(extra)
    return doc


class TestValidation:
    def test_minimal_doc_is_valid(self):
        assert validate_spec_document(minimal_doc()) == []

    def test_missing_required_fields(self):
        problems = validate_spec_document({"schema": SPEC_SCHEMA})
        assert any("name" in p for p in problems)
        assert any("metrics" in p for p in problems)

    def test_unknown_top_level_key_rejected(self):
        problems = validate_spec_document(minimal_doc(matirx=["baseline"]))
        assert any("matirx" in p for p in problems)

    def test_unknown_component_key_rejected(self):
        problems = validate_spec_document(minimal_doc(
            components=[{"name": "c", "enable": {}}],
        ))
        assert any("enable" in p for p in problems)

    def test_wrong_schema_string(self):
        problems = validate_spec_document(minimal_doc(schema="nope-v9"))
        assert any("repro-campaign-v1" in p for p in problems)

    def test_bool_is_not_an_int(self):
        problems = validate_spec_document(minimal_doc(repetitions=True))
        assert any("repetitions" in p for p in problems)

    def test_unknown_matrix_family(self):
        problems = validate_spec_document(minimal_doc(matrix=["all_off"]))
        assert any("all_off" in p for p in problems)

    def test_duplicate_component_names(self):
        problems = validate_spec_document(minimal_doc(
            components=[{"name": "c"}, {"name": "c"}],
        ))
        assert any("unique" in p for p in problems)

    def test_empty_sweep_values(self):
        problems = validate_spec_document(minimal_doc(
            sweeps=[{"field": "rate_per_sec", "values": []}],
        ))
        assert any("values" in p for p in problems)


class TestParse:
    def test_defaults_fill_in(self):
        spec = parse_spec(minimal_doc())
        assert spec.scenario == "run"
        assert spec.repetitions == 1
        assert spec.seed == 1
        assert spec.matrix == ("baseline", "all_on", "all_but_one",
                               "only_one")

    def test_all_problems_reported_at_once(self):
        with pytest.raises(CampaignSpecError) as err:
            parse_spec({"schema": SPEC_SCHEMA})
        assert "name" in str(err.value)
        assert "metrics" in str(err.value)

    def test_unknown_scenario(self):
        with pytest.raises(CampaignSpecError, match="unknown scenario"):
            parse_spec(minimal_doc(scenario="figure9"))

    def test_metric_must_fit_scenario(self):
        with pytest.raises(CampaignSpecError, match="aggregate_mean_ns"):
            parse_spec(minimal_doc(metrics=["aggregate_mean_ns"]))
        parse_spec(minimal_doc(
            scenario="fanin", metrics=["aggregate_mean_ns"],
        ))

    def test_repetitions_must_be_positive(self):
        with pytest.raises(CampaignSpecError, match="repetitions"):
            parse_spec(minimal_doc(repetitions=0))

    def test_digest_is_stable_across_key_order(self):
        doc = minimal_doc(base={"nagle": True, "rate_per_sec": 5000.0})
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        assert parse_spec(doc).digest() == parse_spec(reordered).digest()

    def test_round_trip_through_document(self):
        spec = parse_spec(minimal_doc(
            components=[{"name": "c", "on": {"nagle": True}}],
            sweeps=[{"field": "rate_per_sec", "values": [1000.0]}],
        ))
        assert parse_spec(spec.to_document()) == spec


class TestOverrideKeySpace:
    def test_unknown_override_key_lists_valid_ones(self):
        with pytest.raises(CampaignSpecError) as err:
            _build_run({"ratee": 1000.0})
        assert "ratee" in str(err.value)
        assert "rate_per_sec" in str(err.value)

    def test_time_shorthand_converts_ms(self):
        (config,) = _build_run({"measure_ms": 25})
        assert config.measure_ns == msecs(25)

    def test_workload_shorthand(self):
        (config,) = _build_run({"set_ratio": 0.5, "value_bytes": 64})
        assert config.workload.set_ratio == 0.5
        assert config.workload.value_bytes == 64

    def test_fault_plan_by_name(self):
        (config,) = _build_run({"fault_plan": "bursty-loss"})
        assert config.fault_plan is not None
        assert config.fault_plan.name == "bursty-loss"

    def test_fault_intensity_zero_disables(self):
        (config,) = _build_run({
            "fault_plan": "bursty-loss", "fault_intensity": 0.0,
        })
        assert config.fault_plan is None

    def test_fault_intensity_order_does_not_matter(self):
        # dict insertion order must not affect resolution
        (a,) = _build_run(
            {"fault_intensity": 2.0, "fault_plan": "bursty-loss"}
        )
        (b,) = _build_run(
            {"fault_plan": "bursty-loss", "fault_intensity": 2.0}
        )
        assert a == b

    def test_fault_intensity_without_plan(self):
        with pytest.raises(CampaignSpecError, match="fault_plan"):
            _build_run({"fault_intensity": 2.0})

    def test_bad_value_type_is_wrapped(self):
        with pytest.raises(CampaignSpecError, match="invalid override"):
            _build_run({"measure_ms": "abc"})


class TestScenarioBuilds:
    def test_every_scenario_builds_its_defaults(self):
        for name, scenario in SCENARIOS.items():
            args = scenario.build({})
            assert isinstance(args, tuple), name

    def test_fig2_vm_override(self):
        args = SCENARIOS["fig2"].build({"vm": True})
        assert args[0].client_cpu_factor > 1.0

    def test_fanin_with_toggler_flag(self):
        config, with_toggler = SCENARIOS["fanin"].build(
            {"with_toggler": True, "clients": 2}
        )
        assert with_toggler is True
        assert config.clients == 2

    def test_fanin_shards_auto_is_one_per_cpu(self):
        config, with_toggler, shards = SCENARIOS["fanin"].build(
            {"shards": "auto", "clients": 2}
        )
        assert shards == (os.cpu_count() or 1)
        assert with_toggler is False
        assert config.clients == 2

    @pytest.mark.parametrize("shards", [0, -1, True, "x"])
    def test_fanin_bad_shards_rejected(self, shards):
        with pytest.raises(CampaignSpecError, match="positive integer"):
            SCENARIOS["fanin"].build({"shards": shards})

    def test_fanin_shards_with_toggler_rejected(self):
        with pytest.raises(CampaignSpecError, match="incompatible"):
            SCENARIOS["fanin"].build({"shards": 2, "with_toggler": True})

    def test_timevarying_phase_plan(self):
        plan, base = SCENARIOS["timevarying"].build(
            {"low_rate": 1000.0, "high_rate": 9000.0, "phase_ms": 50}
        )
        assert plan.low_rate == 1000.0
        assert plan.phase_ns == msecs(50)


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_spec(path).name == "t"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="unreadable"):
            load_spec(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(CampaignSpecError, match="invalid JSON"):
            load_spec(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        with pytest.raises(CampaignSpecError, match="mapping"):
            load_spec(path)

    def test_yaml_file_when_available(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            "schema: repro-campaign-v1\nname: t\n"
            "metrics: [latency_mean_ns]\n"
        )
        assert load_spec(path).name == "t"
