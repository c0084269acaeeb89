"""The campaign engine: dedupe, caching, determinism, accounting."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignSpec,
    ComponentSpec,
    expand,
    run_spec,
)
from repro.errors import CampaignSpecError
from repro.obs.metrics import MetricsRegistry
from repro.supervise import CheckpointStore

TINY_BASE = {"measure_ms": 10, "warmup_ms": 5, "rate_per_sec": 5000.0}


def one_component_spec() -> CampaignSpec:
    # With one component, baseline == all_but_one and all_on ==
    # only_one, so 4 cells collapse to 2 unique configurations.
    return CampaignSpec(
        name="engine-t",
        base=dict(TINY_BASE),
        components=(
            ComponentSpec("nagle", on={"nagle": True},
                          off={"nagle": False}),
        ),
        metrics=("latency_mean_ns", "achieved_rate"),
    )


class TestDedupe:
    def test_identical_cells_execute_once(self):
        run = run_spec(one_component_spec())
        assert run.cells == 4
        assert run.executed == 2
        assert run.deduped == 2
        assert run.cached == 0
        assert len(run.values) == 4
        # the mirrored cells carry identical harvested values
        assert run.values[0] == run.values[2]  # baseline == all_but_one
        assert run.values[1] == run.values[3]  # all_on == only_one

    def test_describe_reports_accounting(self):
        run = run_spec(one_component_spec())
        assert "4 cell(s)" in run.describe()
        assert "2 executed" in run.describe()
        assert "2 deduped" in run.describe()

    def test_registry_counters(self):
        registry = MetricsRegistry()
        run_spec(one_component_spec(), metrics=registry)
        assert registry.counter("campaign.cells").value == 4
        assert registry.counter("campaign.unique_cells").value == 2
        assert registry.counter("campaign.executed").value == 2
        assert registry.counter("campaign.deduped").value == 2
        assert registry.counter("campaign.cached").value == 0


class TestCaching:
    def test_cached_rerun_executes_nothing(self, tmp_path):
        spec = one_component_spec()
        cache = CheckpointStore(tmp_path / "cache")
        first = run_spec(spec, checkpoint=cache)
        cache.close()
        cache = CheckpointStore(tmp_path / "cache")
        second = run_spec(spec, checkpoint=cache)
        cache.close()
        assert first.executed == 2 and first.cached == 0
        # The store replays each distinct cell once; its duplicates copy
        # the replayed outcome, as they copy an executed one.
        assert (second.executed, second.deduped, second.cached) == (0, 2, 2)
        assert second.report.to_canonical() == first.report.to_canonical()

    def test_workers_do_not_change_report_bytes(self):
        spec = one_component_spec()
        serial = run_spec(spec, workers=1)
        parallel = run_spec(spec, workers=2)
        assert parallel.report.to_canonical() == serial.report.to_canonical()


class TestGuards:
    def test_watchdog_rejected_for_non_bench_scenario(self):
        from repro.supervise.watchdog import Watchdog

        spec = CampaignSpec(
            name="g", scenario="fanin", metrics=("aggregate_mean_ns",),
            base={"measure_ms": 10},
        )
        with pytest.raises(CampaignSpecError, match="watchdog"):
            run_spec(spec, watchdog=Watchdog(max_events=1000))

    def test_report_matches_matrix_shape(self):
        spec = one_component_spec()
        run = run_spec(spec)
        assert run.report.cells == len(expand(spec).cells)
        assert run.report.spec_digest == spec.digest()
        assert run.report.ranking == ("nagle",)
