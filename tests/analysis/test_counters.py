"""Tests for counter collection."""

from __future__ import annotations

import pytest

from repro.analysis.counters import (
    CounterClock,
    CounterCollector,
    TripleSnapshot,
)
from repro.core.qstate import QueueState
from repro.errors import EstimationError


class FakeEndpoint:
    def __init__(self, clock):
        self.qs_unacked = QueueState(clock)
        self.qs_unread = QueueState(clock)
        self.qs_ackdelay = QueueState(clock)


class TestTripleSnapshot:
    def test_captures_all_three(self, sim):
        endpoint = FakeEndpoint(lambda: sim.now)
        endpoint.qs_unacked.track(5)
        snapshot = TripleSnapshot.capture(endpoint)
        assert snapshot.unacked.total == 0
        assert snapshot.unread.time == sim.now


class TestCounterCollector:
    def test_periodic_sampling(self, sim):
        client = FakeEndpoint(lambda: sim.now)
        server = FakeEndpoint(lambda: sim.now)
        collector = CounterCollector(sim, client, server, period_ns=1000)
        clock = CounterClock(sim, [collector])
        clock.start()
        sim.run(until=5500)
        clock.stop()
        times = [s.time for s in collector.samples]
        assert times == [0, 1000, 2000, 3000, 4000, 5000, 5500]

    def test_stop_stops(self, sim):
        client = FakeEndpoint(lambda: sim.now)
        server = FakeEndpoint(lambda: sim.now)
        collector = CounterCollector(sim, client, server, period_ns=1000)
        clock = CounterClock(sim, [collector])
        clock.start()
        sim.run(until=2500)
        clock.stop()
        count = len(collector.samples)
        sim.run(until=10_000)
        assert len(collector.samples) == count

    def test_invalid_period(self, sim):
        with pytest.raises(EstimationError):
            CounterCollector(sim, None, None, period_ns=0)
