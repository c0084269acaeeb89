"""Tests for offline estimation (§3.4 methodology)."""

from __future__ import annotations

import pytest

from repro.analysis.counters import CounterSample, TripleSnapshot
from repro.analysis.offline import (
    estimate_between,
    interval_series,
    throughput_weighted,
    window_estimate,
)
from repro.core.qstate import QueueSnapshot
from repro.errors import EstimationError


def triple(time, unacked=(0, 0), unread=(0, 0), ackdelay=(0, 0)):
    """Build a TripleSnapshot from (total, integral) pairs."""
    return TripleSnapshot(
        unacked=QueueSnapshot(time, *unacked),
        unread=QueueSnapshot(time, *unread),
        ackdelay=QueueSnapshot(time, *ackdelay),
    )


class TestEstimateBetween:
    def test_combines_views_per_paper_formula(self):
        # Client unacked delay 100, server ackdelay 20, server unread 30,
        # client unread 10 -> client view = 100-20+30+10 = 120.
        prev = CounterSample(time=0, client=triple(0), server=triple(0))
        cur = CounterSample(
            time=1000,
            client=triple(1000, unacked=(1, 100), unread=(1, 10)),
            server=triple(1000, unread=(1, 30), ackdelay=(1, 20)),
        )
        estimate = estimate_between(prev, cur)
        assert estimate.client_view_ns == pytest.approx(120)
        # Server view: server unacked (none -> undefined).
        assert estimate.server_view_ns is None
        assert estimate.latency_ns == pytest.approx(120)

    def test_max_of_both_views(self):
        prev = CounterSample(time=0, client=triple(0), server=triple(0))
        cur = CounterSample(
            time=1000,
            client=triple(1000, unacked=(1, 100), unread=(1, 10)),
            server=triple(1000, unacked=(1, 500), unread=(1, 30),
                          ackdelay=(1, 20)),
        )
        estimate = estimate_between(prev, cur)
        # Server view = 500 - 0(client ackdelay undefined->0) + 30 + 10.
        assert estimate.server_view_ns == pytest.approx(540)
        assert estimate.latency_ns == pytest.approx(540)

    def test_throughput_from_client_unacked(self):
        prev = CounterSample(time=0, client=triple(0), server=triple(0))
        cur = CounterSample(
            time=10**9,
            client=triple(10**9, unacked=(5000, 1), unread=(1, 1)),
            server=triple(10**9, unread=(1, 1)),
        )
        estimate = estimate_between(prev, cur)
        assert estimate.throughput_per_sec == pytest.approx(5000)

    def test_out_of_order_samples_rejected(self):
        sample = CounterSample(time=0, client=triple(0), server=triple(0))
        with pytest.raises(EstimationError):
            estimate_between(sample, sample)


class TestSeries:
    def _samples(self):
        samples = []
        for index in range(4):
            t = index * 1000
            samples.append(
                CounterSample(
                    time=t,
                    client=triple(t, unacked=(index, index * 50),
                                  unread=(index, index * 10)),
                    server=triple(t, unread=(index, index * 20),
                                  ackdelay=(index, index * 5)),
                )
            )
        return samples

    def test_interval_series_length(self):
        series = interval_series(self._samples())
        assert len(series) == 3
        assert all(e.defined for e in series)

    def test_window_estimate_uses_bracketing_samples(self):
        estimate = window_estimate(self._samples(), 0, 3000)
        assert estimate.start == 0
        assert estimate.end == 3000

    def test_window_estimate_needs_two_samples(self):
        with pytest.raises(EstimationError):
            window_estimate(self._samples(), 2500, 2600)


class TestThroughputWeighted:
    def test_weights_each_latency_by_its_throughput(self):
        assert throughput_weighted([(100.0, 1.0), (400.0, 3.0)]) == (
            325.0, 4.0,
        )

    def test_undefined_and_idle_connections_are_skipped(self):
        pairs = [(None, 5.0), (50.0, None), (70.0, 0.0), (80.0, -1.0),
                 (30.0, 2.0)]
        assert throughput_weighted(pairs) == (30.0, 2.0)

    def test_nothing_left_is_none(self):
        assert throughput_weighted([]) is None
        assert throughput_weighted([(None, 1.0), (10.0, 0.0)]) is None

    def test_sums_in_connection_order(self):
        pairs = [(0.1, 3.0), (0.2, 7.0), (0.3, 11.0)]
        weighted = 0.1 * 3.0 + 0.2 * 7.0 + 0.3 * 11.0
        assert throughput_weighted(iter(pairs)) == (weighted / 21.0, 21.0)
