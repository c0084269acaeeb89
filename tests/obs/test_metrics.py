"""The metrics registry: counters, gauges, histograms, snapshots."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_run_metrics,
    require_valid_metrics,
    validate_metrics,
)
from repro.obs.schema import validate_record


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_last_set_wins(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_summary_stats(self):
        hist = Histogram()
        for value in (1, 2, 3, 100):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 1
        assert hist.max == 100
        assert hist.mean == pytest.approx(26.5)

    def test_power_of_two_buckets(self):
        hist = Histogram()
        hist.observe(1)      # bucket 0
        hist.observe(2)      # bucket 1
        hist.observe(3)      # bucket 2
        hist.observe(1024)   # bucket 10
        assert hist.buckets == {0: 1, 1: 1, 2: 1, 10: 1}

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Histogram().observe(-1)

    def test_empty_mean_is_none(self):
        assert Histogram().mean is None


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ObservabilityError):
            registry.gauge("a")

    def test_snapshot_shape_and_determinism(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(3)
        registry.gauge("a.level").set(0.5)
        registry.histogram("m.dist").observe(7)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        assert snapshot["counters"] == {"z.count": 3}
        assert snapshot["gauges"] == {"a.level": 0.5}
        assert snapshot["histograms"]["m.dist"]["count"] == 1
        # JSON-serializable, and stable across identical registries.
        json.dumps(snapshot)
        assert snapshot == registry.snapshot()


class TestCollectRunMetrics:
    @pytest.mark.slow
    def test_standard_catalog(self):
        from repro.experiments.fig4a import default_config
        from repro.loadgen.lancet import run_benchmark
        from repro.units import msecs

        holder = {}

        def tweak(bed):
            holder["bed"] = bed

        config = default_config(measure_ns=msecs(40))
        result = run_benchmark(config, tweak=tweak)
        registry = collect_run_metrics(holder["bed"], result=result)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["exchange.client.states_sent"] > 0
        assert snapshot["counters"]["nic.client.tx_wire_packets"] > 0
        assert snapshot["gauges"]["run.achieved_rate"] > 0
        json.dumps(snapshot)


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("z.count").inc(3)
    registry.gauge("a.level").set(0.5)
    registry.gauge("a.unset")
    registry.histogram("m.dist").observe(7)
    registry.histogram("m.empty")
    return registry.snapshot()


class TestValidateMetrics:
    def test_toggler_run_snapshot_validates(self):
        from repro.core.toggler import TogglerConfig
        from repro.experiments.ablations import attach_toggler
        from repro.experiments.fig4a import default_config
        from repro.loadgen.lancet import run_benchmark
        from repro.units import msecs

        holder = {}

        def tweak(bed):
            holder["bed"] = bed
            holder["toggler"] = attach_toggler(
                bed, config=TogglerConfig(tick_ns=msecs(2), min_samples=1)
            )

        config = default_config(measure_ns=msecs(10))
        result = run_benchmark(config, tweak=tweak)
        snapshot = collect_run_metrics(
            holder["bed"], result=result, toggler=holder["toggler"]
        ).snapshot()
        assert snapshot["gauges"]["toggler.final_mode"] in (0, 1)
        assert validate_metrics(snapshot) == []
        assert validate_metrics(json.loads(json.dumps(snapshot))) == []
        require_valid_metrics(snapshot)

    def test_registry_snapshot_validates(self):
        assert validate_metrics(_snapshot()) == []
        assert validate_metrics(MetricsRegistry().snapshot()) == []

    def test_missing_field_reported(self):
        snapshot = _snapshot()
        del snapshot["gauges"]
        assert validate_metrics(snapshot) == [
            "metrics: missing field 'gauges'"
        ]

    def test_bool_counter_reported(self):
        snapshot = _snapshot()
        snapshot["counters"]["z.flag"] = True
        assert validate_metrics(snapshot) == [
            "metrics.counters: field 'z.flag' must be int, got bool"
        ]

    def test_gauge_must_be_a_number_or_null(self):
        snapshot = _snapshot()
        snapshot["gauges"]["a.level"] = "high"
        snapshot["gauges"]["a.on"] = False
        assert validate_metrics(snapshot) == [
            "metrics.gauges: field 'a.level' must be int | float | null, "
            "got str",
            "metrics.gauges: field 'a.on' must be int | float | null, "
            "got bool",
        ]

    def test_non_object_histogram_reported(self):
        snapshot = _snapshot()
        snapshot["histograms"]["m.dist"] = 7
        assert validate_metrics(snapshot) == [
            "metrics.histograms['m.dist']: must be an object, got int"
        ]

    def test_unexpected_keys_reported(self):
        snapshot = _snapshot()
        snapshot["bonus"] = 1
        assert validate_metrics(snapshot) == [
            "metrics: unexpected fields ['bonus']"
        ]
        snapshot = _snapshot()
        snapshot["histograms"]["m.dist"]["p99"] = 7
        assert validate_metrics(snapshot) == [
            "metrics.histograms['m.dist']: unexpected fields ['p99']"
        ]

    def test_wrong_schema_and_non_object(self):
        snapshot = _snapshot()
        snapshot["schema"] = "repro-metrics-v0"
        assert validate_metrics(snapshot) == [
            "metrics: schema is 'repro-metrics-v0', expected "
            "'repro-metrics-v1'"
        ]
        assert validate_metrics([]) == [
            "metrics: must be an object, got list"
        ]

    def test_require_raises_typed_error(self):
        with pytest.raises(ObservabilityError, match="repro-metrics-v1"):
            require_valid_metrics({"schema": METRICS_SCHEMA})

    def test_snapshot_record_checks_its_metrics(self):
        record = {
            "t": 0, "type": "metrics.snapshot", "src": "metrics",
            "metrics": {"schema": METRICS_SCHEMA},
        }
        assert validate_record(record) == [
            "metrics: missing field 'counters'",
            "metrics: missing field 'gauges'",
            "metrics: missing field 'histograms'",
        ]
        record["metrics"] = _snapshot()
        assert validate_record(record) == []
