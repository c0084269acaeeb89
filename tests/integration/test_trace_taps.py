"""Tests for the protocol trace taps (``tcp.event`` records)."""

from __future__ import annotations

from repro.obs import NULL_TRACER, Tracer
from tests.conftest import drain_reader

SECOND = 10**9


def tcp_events(tracer: Tracer, event: str, src: str) -> list:
    """The ``tcp.event`` records one socket emitted for one tap."""
    return [
        record for record in tracer.records
        if record["type"] == "tcp.event" and record["event"] == event
        and record["src"] == src
    ]


class TestTraceTaps:
    def test_disabled_by_default_records_nothing(self, sim, pair_factory):
        client, server, a, b = pair_factory.build()
        a.send("m", 5000)
        results = {}
        drain_reader(sim, b, 5000, results)
        sim.run(until=SECOND)
        assert results["bytes"] == 5000
        assert client.tracer is NULL_TRACER
        assert server.tracer is NULL_TRACER
        assert NULL_TRACER.records == []

    def test_tx_rx_events_recorded_when_enabled(self, sim, pair_factory):
        tracer = Tracer()
        client, server, a, b = pair_factory.build(tracer=tracer)
        a.send("m", 5000)
        results = {}
        drain_reader(sim, b, 5000, results)
        sim.run(until=SECOND)
        tx_events = tcp_events(tracer, "tx", a.name)
        rx_events = tcp_events(tracer, "rx", b.name)
        assert tx_events
        assert rx_events
        assert sum(e["detail"]["len"] for e in tx_events) == 5000
        assert sum(e["detail"]["len"] for e in rx_events) == 5000

    def test_batching_hold_traced(self, sim, pair_factory):
        tracer = Tracer()
        client, _, a, b = pair_factory.build(nagle=True, tracer=tracer)
        a.send("m1", 500)
        a.send("m2", 400)  # held by Nagle
        holds = tcp_events(tracer, "batching_hold", a.name)
        assert holds
        assert holds[-1]["detail"] == 400

    def test_window_probe_traced(self, sim, pair_factory):
        tracer = Tracer()
        client, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 5_000, "min_rto_ns": 1_000_000},
            tracer=tracer,
        )
        a.send("big", 50_000)
        sim.run(until=SECOND)
        assert tcp_events(tracer, "window_probe", a.name)
