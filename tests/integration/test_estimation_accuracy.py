"""End-to-end estimation accuracy — the paper's central claim, tested.

These are the paper's §4 findings as assertions on short simulated runs:
the §3.2 byte-granularity estimate tracks measured latency on the
homogeneous workload, diverges on the mixed workload, and the hint-based
path stays accurate on both.
"""

from __future__ import annotations

import pytest

from repro.analysis.offline import CounterSample, estimate_between
from repro.core.estimator import E2EEstimator, combine_estimates
from repro.core.qstate import TripleSnapshot
from repro.loadgen.arrivals import Workload
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.units import KIB, msecs

import pytest as _pytest

pytestmark = _pytest.mark.slow


def config(**overrides) -> BenchConfig:
    defaults = dict(
        rate_per_sec=30_000.0,
        workload=Workload(value_bytes=16 * KIB),
        warmup_ns=msecs(20),
        measure_ns=msecs(80),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestHomogeneousAccuracy:
    """Figure 4a regime: fixed-size requests and responses."""

    @pytest.mark.parametrize("nagle", [False, True])
    def test_estimate_within_half_of_measured(self, nagle):
        result = run_benchmark(config(nagle=nagle))
        measured = result.send_latency.mean_ns
        estimated = result.estimate.latency_ns
        assert estimated is not None
        assert 0.4 * measured < estimated < 1.3 * measured

    def test_estimate_tracks_load_growth(self):
        """Higher load -> more queueing -> both measured and estimated
        latency rise together, and the estimate converges toward the
        measured value as queueing dominates."""
        low = run_benchmark(config(rate_per_sec=10_000.0))
        high = run_benchmark(config(rate_per_sec=36_000.0))
        assert high.estimate.latency_ns > low.estimate.latency_ns
        low_error = abs(low.estimate.latency_ns - low.send_latency.mean_ns)
        high_ratio = high.estimate.latency_ns / high.send_latency.mean_ns
        assert high_ratio > 0.6
        assert high.send_latency.mean_ns > low.send_latency.mean_ns

    def test_estimated_throughput_matches_offered(self):
        result = run_benchmark(config(rate_per_sec=20_000.0))
        assert result.estimate_rps == pytest.approx(20_000, rel=0.1)


class TestMixedWorkloadDivergence:
    """Figure 4b regime: 5% GETs with 16 KiB responses."""

    def test_byte_estimate_diverges_hints_do_not(self):
        result = run_benchmark(
            config(workload=Workload(set_ratio=0.95, value_bytes=16 * KIB))
        )
        measured = result.send_latency.mean_ns
        byte_error = abs(result.estimate.latency_ns - measured) / measured
        hint_error = abs(result.hint_latency_ns - measured) / measured
        assert hint_error < 0.25
        assert hint_error < byte_error


class TestHintAccuracy:
    @pytest.mark.parametrize("set_ratio", [1.0, 0.95])
    def test_hint_latency_close_to_measured(self, set_ratio):
        result = run_benchmark(
            config(workload=Workload(set_ratio=set_ratio, value_bytes=16 * KIB))
        )
        assert result.hint_latency_ns == pytest.approx(
            result.send_latency.mean_ns, rel=0.25
        )

    def test_hint_throughput_matches_achieved(self):
        result = run_benchmark(config())
        assert result.hint_rps == pytest.approx(result.achieved_rate, rel=0.1)


class TestWireModeEstimator:
    """The metadata exchange path (not the offline oracle) also works."""

    def test_wire_estimates_flow_through_options(self):
        samples = []

        def tweak(bed):
            estimator = E2EEstimator(bed.client_sock, exchange=bed.client_exchange)

            def tick():
                sample = estimator.sample()
                if sample is not None and sample.defined:
                    samples.append(sample)
                bed.sim.call_after(msecs(10), tick)

            bed.sim.call_after(msecs(25), tick)

        result = run_benchmark(config(exchange_period_ns=msecs(5)), tweak=tweak)
        assert len(samples) >= 5
        mean_estimate = sum(s.latency_ns for s in samples) / len(samples)
        measured = result.send_latency.mean_ns
        assert 0.3 * measured < mean_estimate < 1.5 * measured

    def test_two_sided_combination(self):
        """Both endpoints estimate; the max is a sane hedge."""
        collected = {}

        def tweak(bed):
            client_est = E2EEstimator(bed.client_sock, exchange=bed.client_exchange)
            server_est = E2EEstimator(bed.server_sock, exchange=bed.server_exchange)
            values = []

            def tick():
                combined = combine_estimates(
                    client_est.sample(), server_est.sample()
                )
                if combined is not None:
                    values.append(combined)
                bed.sim.call_after(msecs(10), tick)

            bed.sim.call_after(msecs(25), tick)
            collected["values"] = values

        result = run_benchmark(config(), tweak=tweak)
        values = collected["values"]
        assert values
        mean_estimate = sum(values) / len(values)
        assert mean_estimate > 0


class TestOfflineAgreesWithOnline:
    """The offline analysis and the online estimator are one §3.2 sum."""

    @pytest.mark.parametrize("nagle", [False, True])
    @pytest.mark.parametrize("rate", [5_000.0, 35_000.0, 60_000.0])
    def test_offline_views_equal_oracle_estimates(self, rate, nagle):
        # At two instants of one run, snapshot both ends and sample the
        # oracle-mode estimators of each end's view: the offline client
        # and server views over the same interval are the estimates.
        taken = []

        def tweak(bed):
            client = E2EEstimator(bed.client_sock, remote=bed.server_sock)
            server = E2EEstimator(bed.server_sock, remote=bed.client_sock)

            def take():
                taken.append((
                    CounterSample(
                        time=bed.sim.now,
                        client=TripleSnapshot.capture(bed.client_sock),
                        server=TripleSnapshot.capture(bed.server_sock),
                    ),
                    client.sample(),
                    server.sample(),
                ))

            bed.sim.call_after(msecs(10), take)
            bed.sim.call_after(msecs(28), take)

        run_benchmark(config(
            rate_per_sec=rate, nagle=nagle,
            warmup_ns=msecs(10), measure_ns=msecs(20),
        ), tweak=tweak)
        (first, _, _), (last, client_view, server_view) = taken
        offline = estimate_between(first, last)
        assert client_view.latency_ns is not None
        assert server_view.latency_ns is not None
        assert offline.client_view_ns == client_view.latency_ns
        assert offline.server_view_ns == server_view.latency_ns
