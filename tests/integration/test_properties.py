"""Property-based invariants across the substrate layers.

These complement the per-module suites with cross-layer properties:
whatever the message sizes, loss rates, Nagle settings or exchange
cadences, the stack must deliver every byte in order exactly once, the
queue-state counters must conserve, and the wire exchange must
reconstruct the sender's counters.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.exchange import MetadataExchange, OPTION_E2E, WirePeerState
from repro.core.qstate import QueueState
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from tests.conftest import PairFactory, drain_reader

import pytest as _pytest

pytestmark = _pytest.mark.slow

SECOND = 10**9


class TestDeliveryProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=10),
        nagle=st.booleans(),
        gro_window=st.sampled_from([0, 1_000, 3_000]),
    )
    def test_exactly_once_in_order_any_config(self, sizes, nagle, gro_window):
        from repro.net.nic import NicConfig

        sim = Simulator()
        factory = PairFactory(sim)
        _, _, a, b = factory.build(
            nagle=nagle,
            nic_config=NicConfig(gro_flush_ns=gro_window),
        )
        for index, size in enumerate(sizes):
            a.send(index, size)
        results = {}
        drain_reader(sim, b, sum(sizes), results)
        sim.run(until=10 * SECOND)
        assert results["messages"] == list(range(len(sizes)))
        # Counter conservation across all three paper queues.
        assert a.qs_unacked.total == sum(sizes)
        assert b.qs_unread.total == sum(sizes)
        assert b.qs_ackdelay.total == sum(sizes)
        assert a.qs_unacked.size == 0

    @settings(max_examples=8, deadline=None)
    @given(
        loss=st.floats(0.01, 0.15),
        seed=st.integers(0, 100),
        total=st.integers(10_000, 120_000),
    )
    # This flow's last byte waits out a full 120 s RTO (done at 127.8 s).
    @example(loss=0.125, seed=6, total=34_753)
    def test_lossy_network_still_exactly_once(self, loss, seed, total):
        sim = Simulator()
        rng = RngRegistry(seed).stream("loss")
        factory = PairFactory(sim)
        _, _, a, b = factory.build(
            loss_probability=loss,
            loss_rng=rng,
            tcp_kwargs={"min_rto_ns": 2_000_000},
        )
        a.send("bulk", total)
        results = {}
        drain_reader(sim, b, total, results)
        # Each RTO doubles the timer up to its 120 s ceiling, and Karn's
        # rule samples no RTT from retransmitted data, so once the last
        # new segment is out the backed-off timer never shrinks again.
        # A lossy tail can thus outlast 120 s (the slowest of 3,030
        # grid runs at up to 15% loss took 296 s); allow an hour.
        sim.run(until=3600 * SECOND)
        assert results["bytes"] == total
        assert b.rcv_nxt == total
        assert a.snd_una == total


class TestExchangeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        deltas=st.lists(
            st.tuples(st.integers(0, 5_000), st.integers(0, 10_000_000)),
            min_size=2,
            max_size=30,
        )
    )
    def test_wire_roundtrip_tracks_queue_totals(self, deltas):
        """Snapshot -> 36-byte wire -> unwrap preserves total counts and
        times at wire resolution, for any activity pattern."""
        sim = Simulator()

        class Endpoint:
            def __init__(self):
                self.qs_unacked = QueueState(lambda: sim.now)
                self.qs_unread = QueueState(lambda: sim.now)
                self.qs_ackdelay = QueueState(lambda: sim.now)
                self.exchange = None

        sender = Endpoint()
        receiver = Endpoint()
        exchange = MetadataExchange(sim, receiver, period_ns=1)

        for items, dt in deltas:
            sim.call_after(dt, lambda: None)
            sim.run()
            sender.qs_unacked.track(items)
            sender.qs_unacked.track(-items)
            wire = WirePeerState.capture(sender, exchange.scale)
            decoded = WirePeerState.decode(wire.encode())
            exchange.on_receive({OPTION_E2E: decoded})

        unwrapped = exchange.remote_cur.unacked
        assert unwrapped.total == sender.qs_unacked.total
        # Time matches at the wire's microsecond resolution.
        assert abs(unwrapped.time - sim.now) < 1_000


class TestSeedDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_full_run_bit_for_bit_reproducible(self, seed):
        from repro.loadgen.lancet import BenchConfig, run_benchmark
        from repro.units import msecs

        config = BenchConfig(
            rate_per_sec=12_000.0, seed=seed,
            warmup_ns=msecs(5), measure_ns=msecs(15),
        )
        first = run_benchmark(config)
        second = run_benchmark(config)
        assert first.latency.mean_ns == second.latency.mean_ns
        assert first.achieved_rate == second.achieved_rate
        assert first.estimate.latency_ns == second.estimate.latency_ns
