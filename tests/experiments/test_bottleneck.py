"""Smoke tests for the shared-bottleneck experiment.

The exhaustive (shards × workers) byte-identity matrix lives in the
golden-digest suite (``tests/perf/test_equivalence.py``); these tests
check the physics and the in-process partition invariance cheaply.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import WorkloadError
from repro.experiments.bottleneck import (
    BottleneckConfig,
    run_shared_bottleneck,
)
from repro.units import msecs

pytestmark = pytest.mark.slow


def small_config(**overrides) -> BottleneckConfig:
    defaults = dict(warmup_ns=msecs(10), measure_ns=msecs(30))
    defaults.update(overrides)
    return BottleneckConfig(**defaults)


def test_all_flows_served_and_link_contended():
    result = run_shared_bottleneck(small_config())
    assert len(result.per_flow_mean_ns) == result.config.flows
    assert all(mean > 0 for mean in result.per_flow_mean_ns)
    assert result.merged_events > 0
    # The bottleneck actually carries the traffic and actually queues.
    assert 0 < result.bottleneck_utilization <= 1.0
    assert result.bottleneck_peak_queue > 0
    assert result.bottleneck_packets > 0
    # Flows start in lockstep with the same per-flow rate: contention at
    # the shared link must show in every flow, so means stay comparable.
    low, high = min(result.per_flow_mean_ns), max(result.per_flow_mean_ns)
    assert high < 2 * low


def test_windows_follow_the_lookahead():
    result = run_shared_bottleneck(small_config())
    config = result.config
    horizon = config.horizon_ns
    lookahead = config.propagation_delay_ns
    expected = horizon // lookahead + (1 if horizon % lookahead else 0)
    assert result.windows == expected
    assert result.exchanged_events > 0


def test_sharded_is_byte_identical_in_process():
    config = small_config()
    reference = run_shared_bottleneck(config).to_json()
    for shards in (2, 4):
        assert run_shared_bottleneck(
            config, shards=shards
        ).to_json() == reference


def test_shared_store_keys_engine_runs_by_config(tmp_path):
    """Runs of different seeds share one store without reading each
    other's replies, and a rerun is served entirely from the store."""
    from repro.supervise import CheckpointStore
    from repro.experiments.fanin import FaninConfig, run_fanin_sharded

    runs = [
        (run_shared_bottleneck, small_config(measure_ns=msecs(10))),
        (run_fanin_sharded,
         FaninConfig(warmup_ns=msecs(10), measure_ns=msecs(20))),
    ]
    cache = CheckpointStore(tmp_path / "store")
    first = [
        run(config, shards=2, checkpoint=cache).to_json()
        for run, config in runs
    ]
    for run, config in runs:
        seed7 = replace(config, seed=7)
        cached = run(seed7, shards=2, checkpoint=cache).to_json()
        assert cached == run(seed7, shards=2).to_json(), run.__name__
    misses = cache.misses
    again = [
        run(config, shards=2, checkpoint=cache).to_json()
        for run, config in runs
    ]
    assert again == first
    assert cache.misses == misses
    cache.close()


def test_contention_raises_latency_over_a_lone_flow():
    # One flow at 1/4 the aggregate rate sees an idle bottleneck; four
    # flows at the full rate queue behind each other.
    lone = run_shared_bottleneck(small_config(
        flows=1, total_rate_per_sec=2_000.0
    ))
    contended = run_shared_bottleneck(small_config())
    assert contended.aggregate_mean_ns > lone.aggregate_mean_ns


def test_render():
    text = run_shared_bottleneck(small_config()).render()
    assert "Shared bottleneck" in text
    assert "aggregate" in text


@pytest.mark.parametrize("overrides", [
    {"flows": 0},
    {"flows": -2},
    {"total_rate_per_sec": 0.0},
    {"warmup_ns": -1},
    {"measure_ns": 0},
], ids=lambda overrides: "=".join(map(str, *overrides.items())))
def test_bad_config_is_refused_before_the_engine(overrides, monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("a bad config reached the windowed engine")

    monkeypatch.setattr("repro.experiments.bottleneck.run_windowed", engine)
    with pytest.raises(WorkloadError):
        run_shared_bottleneck(small_config(**overrides))
