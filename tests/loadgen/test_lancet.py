"""Integration tests for the benchmark harness (short runs)."""

from __future__ import annotations

import pytest

from repro.errors import WatchdogError, WorkloadError
from repro.loadgen.arrivals import Workload
from repro.loadgen.lancet import BenchConfig, build_testbed, run_benchmark
from repro.loadgen.sweep import estimated_curve, measured_curve, sweep_rates
from repro.supervise import Watchdog
from repro.units import KIB, msecs, usecs


def short_config(**overrides) -> BenchConfig:
    defaults = dict(
        rate_per_sec=10_000.0,
        workload=Workload(value_bytes=16 * KIB),
        warmup_ns=msecs(10),
        measure_ns=msecs(40),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            BenchConfig(rate_per_sec=0).validate()
        with pytest.raises(WorkloadError):
            BenchConfig(rate_per_sec=1, arrival="weird").validate()
        with pytest.raises(WorkloadError):
            BenchConfig(rate_per_sec=1, measure_ns=0).validate()


class TestRunBenchmark:
    def test_achieves_offered_rate_below_saturation(self):
        result = run_benchmark(short_config())
        assert result.achieved_rate == pytest.approx(10_000, rel=0.15)
        assert result.latency.count > 200

    def test_latency_positive_and_ordered(self):
        result = run_benchmark(short_config())
        assert 0 < result.latency.p50_ns <= result.latency.p99_ns
        assert result.latency.mean_ns >= result.send_latency.mean_ns

    def test_estimate_present_and_plausible(self):
        result = run_benchmark(short_config())
        assert result.estimate is not None and result.estimate.defined
        # The byte estimate excludes app processing; it must be in the
        # same ballpark as (and below) the measured send latency.
        assert 0 < result.estimate.latency_ns < result.send_latency.mean_ns

    def test_hint_estimate_close_to_measured(self):
        result = run_benchmark(short_config())
        assert result.hint_latency_ns is not None
        assert result.hint_latency_ns == pytest.approx(
            result.send_latency.mean_ns, rel=0.25
        )
        assert result.hint_rps == pytest.approx(result.achieved_rate, rel=0.1)

    def test_utilizations_in_range(self):
        result = run_benchmark(short_config())
        for util in (
            result.client_app_util, result.client_net_util,
            result.server_app_util, result.server_net_util,
        ):
            assert 0.0 <= util <= 1.0
        assert result.server_net_util > 0.05

    def test_same_seed_reproducible(self):
        a = run_benchmark(short_config(seed=7))
        b = run_benchmark(short_config(seed=7))
        assert a.latency.mean_ns == b.latency.mean_ns
        assert a.achieved_rate == b.achieved_rate

    def test_different_seeds_differ(self):
        a = run_benchmark(short_config(seed=7))
        b = run_benchmark(short_config(seed=8))
        assert a.latency.mean_ns != b.latency.mean_ns

    def test_nagle_seed_parity(self):
        """Nagle on/off runs with the same seed see identical request
        sequences (the A/B property the sweeps rely on)."""
        off = run_benchmark(short_config(nagle=False, seed=3))
        on = run_benchmark(short_config(nagle=True, seed=3))
        assert off.latency.count == pytest.approx(on.latency.count, abs=5)

    def test_uniform_arrivals(self):
        result = run_benchmark(short_config(arrival="uniform"))
        assert result.achieved_rate == pytest.approx(10_000, rel=0.1)

    def test_tweak_hook_runs(self):
        seen = {}
        run_benchmark(short_config(), tweak=lambda bed: seen.update(ok=True))
        assert seen.get("ok")

    def test_watchdog_refuses_a_horizon_past_its_budget(self, monkeypatch):
        # A budget of exactly warmup + measure runs; one ns less is
        # refused before the testbed is built, so the tweak never runs.
        config = short_config(warmup_ns=msecs(2), measure_ns=msecs(4))
        horizon = config.warmup_ns + config.measure_ns
        tweaked = []
        result = run_benchmark(
            config, tweak=tweaked.append,
            watchdog=Watchdog(max_sim_time_ns=horizon),
        )
        assert len(tweaked) == 1 and result.latency.count > 0
        built = []
        monkeypatch.setattr(
            "repro.loadgen.lancet.build_testbed",
            lambda *args, **kwargs: built.append(args),
        )
        with pytest.raises(
            WatchdogError,
            match=f"run horizon {horizon}ns .* budget of {horizon - 1}ns",
        ):
            run_benchmark(
                config, tweak=tweaked.append,
                watchdog=Watchdog(max_sim_time_ns=horizon - 1),
            )
        assert built == [] and len(tweaked) == 1

    def test_mixed_workload_per_kind_stats(self):
        result = run_benchmark(
            short_config(workload=Workload(set_ratio=0.9, value_bytes=16 * KIB))
        )
        assert "SET" in result.per_kind
        assert "GET" in result.per_kind
        assert result.per_kind["SET"].count > result.per_kind["GET"].count


class TestMultiConnection:
    def test_connections_validated(self):
        with pytest.raises(WorkloadError):
            BenchConfig(rate_per_sec=1, connections=0).validate()

    def test_records_aggregate_across_connections(self):
        result = run_benchmark(short_config(connections=3))
        assert result.achieved_rate == pytest.approx(10_000, rel=0.15)
        assert result.latency.count > 200

    def test_estimates_averaged_across_connections(self):
        """§3.2: per-connection estimates averaged for a policy spanning
        multiple connections."""
        result = run_benchmark(short_config(connections=3))
        assert result.estimate is not None and result.estimate.defined
        assert result.estimate_rps == pytest.approx(result.achieved_rate, rel=0.15)
        assert result.hint_rps == pytest.approx(result.achieved_rate, rel=0.15)
        assert result.hint_latency_ns == pytest.approx(
            result.send_latency.mean_ns, rel=0.3
        )

    def test_single_and_multi_connection_latency_comparable(self):
        one = run_benchmark(short_config(connections=1))
        many = run_benchmark(short_config(connections=4))
        assert many.latency.mean_ns == pytest.approx(
            one.latency.mean_ns, rel=0.5
        )


class TestBuildTestbed:
    def test_components_wired(self):
        bed = build_testbed(short_config())
        assert bed.client_sock.peer is bed.server_sock
        assert bed.client_sock.exchange is bed.client_exchange
        assert bed.hint_session is not None

    def test_no_hints_mode(self):
        bed = build_testbed(short_config(use_hints=False))
        assert bed.hint_session is None


class TestSweep:
    def test_sweep_produces_monotone_load(self):
        points = sweep_rates(short_config(), [5_000.0, 15_000.0])
        assert [p.rate_per_sec for p in points] == [5_000.0, 15_000.0]
        measured = measured_curve(points)
        assert len(measured) == 2
        estimated = estimated_curve(points)
        assert len(estimated) == 2

    def test_latency_grows_with_load(self):
        points = sweep_rates(short_config(), [5_000.0, 35_000.0])
        assert (
            points[1].result.latency.mean_ns > points[0].result.latency.mean_ns
        )
