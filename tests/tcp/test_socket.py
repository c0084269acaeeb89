"""Behavioral tests of the full TCP socket over the simulated network."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TcpError
from repro.sim.rng import RngRegistry
from repro.tcp.socket import TcpConfig
from tests.conftest import PairFactory, drain_reader

SECOND = 10**9


class TestReliableDelivery:
    def test_single_message(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("hello", 1000)
        results = {}
        drain_reader(sim, b, 1000, results)
        sim.run(until=SECOND)
        assert results["bytes"] == 1000
        assert results["messages"] == ["hello"]

    def test_many_messages_in_order(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        sizes = [100, 5000, 1, 20_000, 1448, 333]
        for index, size in enumerate(sizes):
            a.send(index, size)
        results = {}
        drain_reader(sim, b, sum(sizes), results)
        sim.run(until=SECOND)
        assert results["messages"] == list(range(len(sizes)))

    def test_bidirectional_traffic(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("req", 4000)
        b.send("resp", 2000)
        results_a, results_b = {}, {}
        drain_reader(sim, a, 2000, results_a)
        drain_reader(sim, b, 4000, results_b)
        sim.run(until=SECOND)
        assert results_a["messages"] == ["resp"]
        assert results_b["messages"] == ["req"]

    def test_all_bytes_acked_eventually(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("x", 50_000)
        results = {}
        drain_reader(sim, b, 50_000, results)
        sim.run(until=SECOND)
        assert a.snd_una == 50_000
        assert a.unacked_bytes == 0

    def test_send_on_unconnected_socket_rejected(self, sim):
        from repro.host.host import Host
        from repro.tcp.socket import TcpSocket

        host = Host(sim, "h")
        sock = TcpSocket(sim, host, TcpConfig(), conn_id=1, name="lonely")
        with pytest.raises(TcpError):
            sock.send("x", 10)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 30_000), min_size=1, max_size=15))
    def test_arbitrary_message_sizes(self, sizes):
        """Property: any message-size sequence arrives whole and ordered."""
        from repro.sim.loop import Simulator

        sim = Simulator()
        factory = PairFactory(sim)
        _, _, a, b = factory.build()
        for index, size in enumerate(sizes):
            a.send(index, size)
        results = {}
        drain_reader(sim, b, sum(sizes), results)
        sim.run(until=10 * SECOND)
        assert results["bytes"] == sum(sizes)
        assert results["messages"] == list(range(len(sizes)))


class TestNagleBehavior:
    def test_nagle_off_sends_partial_immediately(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=False)
        a.send("m", 500)
        sim.run(until=1000)  # before any ack could return
        assert a.snd_nxt == 500

    def test_nagle_holds_second_partial(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=True)
        a.send("m1", 500)
        assert a.snd_nxt == 500  # idle connection: first partial goes
        a.send("m2", 400)
        assert a.snd_nxt == 500  # held: m1 unacked
        sim.run(until=SECOND)
        assert a.snd_nxt == 900  # released by the ack

    def test_nagle_never_holds_full_segments(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=True)
        mss = a.config.mss
        a.send("m1", 500)
        a.send("m2", 3 * mss)
        # Full segments flow; only the residue is held.
        assert a.snd_nxt == 500 + 3 * mss

    def test_nagle_tail_held_for_large_write(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            nagle=True, tcp_kwargs={"initial_cwnd_segments": 40}
        )
        mss = a.config.mss
        size = 11 * mss + 516
        a.send("req", size)
        assert a.snd_nxt == 11 * mss  # tail residue held
        sim.run(until=SECOND)
        assert a.snd_nxt == size

    def test_initial_cwnd_limits_first_burst(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=True)
        mss = a.config.mss
        a.send("req", 20 * mss)
        # Only the initial window leaves before the first ack.
        assert a.snd_nxt == 10 * mss
        sim.run(until=SECOND)
        assert a.snd_nxt == 20 * mss

    def test_set_nagle_off_releases_held_tail(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=True)
        a.send("m1", 500)
        a.send("m2", 400)
        assert a.snd_nxt == 500
        a.set_nagle(False)
        assert a.snd_nxt == 900

    def test_nagle_delays_delivery_by_about_a_round_trip(self, sim, pair_factory):
        mss = TcpConfig().mss
        size = 11 * mss + 516
        times = {}
        for nagle in (False, True):
            from repro.sim.loop import Simulator

            fresh = Simulator()
            factory = PairFactory(fresh)
            _, _, a, b = factory.build(nagle=nagle)
            a.send("req", size)
            results = {}
            drain_reader(fresh, b, size, results)
            fresh.run(until=SECOND)
            times[nagle] = results["time"]
        # The Nagle run waits ~1 RTT for the tail; 2x propagation = 10us.
        assert times[True] > times[False] + 10_000


class TestCork:
    def test_cork_holds_everything(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=False)
        a.cork()
        a.send("m1", 100)
        a.send("m2", 100)
        assert a.snd_nxt == 0
        a.uncork()
        assert a.snd_nxt == 200

    def test_corked_messages_leave_as_one_burst(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(nagle=False)
        a.cork()
        for index in range(5):
            a.send(index, 100)
        a.uncork()
        assert a.segments_sent == 1  # one 500-byte segment


class TestFlowControl:
    def test_sender_respects_receive_window(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 10_000}
        )
        a.send("big", 50_000)
        sim.run(until=SECOND // 10)
        # Receiver app never reads: sender must stop near the window.
        assert b.readable_bytes <= 10_000
        assert a.snd_nxt <= 10_000 + a.config.mss

    def test_reading_reopens_window(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 10_000}
        )
        a.send("big", 50_000)
        results = {}
        drain_reader(sim, b, 50_000, results)
        sim.run(until=SECOND)
        assert results["bytes"] == 50_000

    def test_window_never_negative(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 5000}
        )
        a.send("x", 20_000)
        sim.run(until=SECOND // 100)
        assert b._advertised_window() >= 0


class TestZeroWindowPersistence:
    def test_probes_fire_while_window_closed(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 5_000, "min_rto_ns": 1_000_000}
        )
        a.send("big", 50_000)
        # The first probe waits the initial (conservative, 200 ms) RTO;
        # subsequent probes use the measured RTO with backoff.
        sim.run(until=2 * SECOND)  # receiver app never reads
        assert a.window_probes_sent >= 3
        # Exponential backoff bounds the probe count.
        assert a.window_probes_sent < 80

    def test_transfer_resumes_after_late_read(self, sim, pair_factory):
        from tests.conftest import drain_reader

        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 5_000, "min_rto_ns": 1_000_000}
        )
        a.send("big", 30_000)
        results = {}
        sim.call_at(20_000_000, lambda: drain_reader(sim, b, 30_000, results))
        sim.run(until=SECOND)
        assert results["bytes"] == 30_000

    def test_probe_elicits_window_readvertisement(self, sim, pair_factory):
        _, _, a, b = pair_factory.build(
            tcp_kwargs={"recv_buffer_bytes": 5_000, "min_rto_ns": 1_000_000}
        )
        a.send("big", 50_000)
        sim.run(until=30_000_000)
        # The receiver answered probes with pure acks.
        assert b.pure_acks_sent >= a.window_probes_sent

    def test_no_probes_when_window_open(self, sim, pair_factory):
        from tests.conftest import drain_reader

        _, _, a, b = pair_factory.build()
        a.send("m", 20_000)
        results = {}
        drain_reader(sim, b, 20_000, results)
        sim.run(until=SECOND)
        assert a.window_probes_sent == 0

    def test_lossy_window_update_recovered_by_probe(self, sim):
        """With heavy loss and a tiny window, window updates get dropped;
        the persist machinery must still complete the transfer."""
        from repro.sim.rng import RngRegistry
        from tests.conftest import PairFactory, drain_reader

        rng = RngRegistry(21).stream("loss")
        factory = PairFactory(sim)
        _, _, a, b = factory.build(
            loss_probability=0.2,
            loss_rng=rng,
            tcp_kwargs={"recv_buffer_bytes": 4_000, "min_rto_ns": 1_000_000},
        )
        a.send("bulk", 40_000)
        results = {}
        drain_reader(sim, b, 40_000, results)
        sim.run(until=200 * SECOND)
        assert results["bytes"] == 40_000


class TestLossRecovery:
    def _lossy_pair(self, sim, probability, seed=11):
        rng = RngRegistry(seed).stream("loss")
        factory = PairFactory(sim)
        return factory.build(
            loss_probability=probability,
            loss_rng=rng,
            tcp_kwargs={"min_rto_ns": 2_000_000},  # 2 ms for fast tests
        )

    def test_delivery_despite_loss(self, sim):
        _, _, a, b = self._lossy_pair(sim, probability=0.05)
        total = 200_000
        a.send("bulk", total)
        results = {}
        drain_reader(sim, b, total, results)
        sim.run(until=30 * SECOND)
        assert results["bytes"] == total
        assert a.retransmits > 0

    def test_heavy_loss_still_delivers(self, sim):
        _, _, a, b = self._lossy_pair(sim, probability=0.25, seed=3)
        total = 30_000
        a.send("bulk", total)
        results = {}
        drain_reader(sim, b, total, results)
        sim.run(until=120 * SECOND)
        assert results["bytes"] == total

    def test_congestion_window_reacts_to_loss(self, sim):
        _, _, a, b = self._lossy_pair(sim, probability=0.08, seed=5)
        a.send("bulk", 300_000)
        results = {}
        drain_reader(sim, b, 300_000, results)
        sim.run(until=60 * SECOND)
        assert a.cc.losses > 0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect: _rtx_expired clears _rtx_timer, _transmit arms "
            "a timer, then _rtx_expired arms a second one and orphans the "
            "first while it is live; both fire at the next expiry, which "
            "retransmits and backs off twice"
        ),
    )
    def test_one_live_timer_and_one_backoff_per_expiry(self, sim):
        _, _, a, _ = PairFactory(sim).build(
            loss_probability=0.99, loss_rng=RngRegistry(11).stream("loss"),
        )
        backoffs = []
        backoff = a.rtt.backoff

        def counted_backoff():
            backoff()
            backoffs.append((sim.now, a.rtt.rto_ns))

        a.rtt.backoff = counted_backoff
        live = []

        def count_live_timers():
            live.append(
                sum(1 for entry in sim._heap if entry[2] == a._rtx_expired)
            )

        ms = 1_000_000
        for t in range(50 * ms, 4_000 * ms, 50 * ms):
            sim.call_at(t + 1, count_live_timers)
        a.send("bulk", 1_000)
        sim.run(until=4 * SECOND)
        assert max(live) == 1
        # The 200 ms initial RTO doubles once at each expiry.
        assert backoffs == [
            (200 * ms, 400 * ms), (600 * ms, 800 * ms),
            (1_400 * ms, 1_600 * ms), (3_000 * ms, 3_200 * ms),
        ]


class TestIdleRestart:
    def test_idle_connection_restarts_slow_start(self, sim, pair_factory):
        from tests.conftest import drain_reader

        _, _, a, b = pair_factory.build(
            tcp_kwargs={"slow_start_after_idle": True}
        )
        results = {}
        drain_reader(sim, b, 200_000 + 20 * a.config.mss, results)
        # Grow the window with a bulk transfer...
        a.send("bulk", 200_000)
        sim.run(until=SECOND)
        grown = a.cc.cwnd
        assert grown > 10 * a.config.mss
        # ...then go idle well past the RTO and send again.
        sim.call_at(2 * SECOND, lambda: a.send("later", 20 * a.config.mss))
        sim.run(until=3 * SECOND)
        assert a.idle_restarts == 1
        assert results["bytes"] == 200_000 + 20 * a.config.mss

    def test_disabled_by_default(self, sim, pair_factory):
        from tests.conftest import drain_reader

        _, _, a, b = pair_factory.build()
        results = {}
        drain_reader(sim, b, 220_000, results)
        a.send("bulk", 200_000)
        sim.run(until=SECOND)
        grown = a.cc.cwnd
        sim.call_at(2 * SECOND, lambda: a.send("later", 20_000))
        sim.run(until=3 * SECOND)
        assert a.idle_restarts == 0
        assert a.cc.cwnd >= grown

    def test_no_restart_when_gap_within_rto(self, sim, pair_factory):
        from tests.conftest import drain_reader

        _, _, a, b = pair_factory.build(
            tcp_kwargs={"slow_start_after_idle": True}
        )
        results = {}
        drain_reader(sim, b, 240_000, results)
        a.send("bulk", 200_000)
        sim.run(until=SECOND // 10)
        # Well within the (200 ms minimum) RTO.
        sim.call_at(SECOND // 10 + 50_000_000, lambda: a.send("soon", 40_000))
        sim.run(until=SECOND)
        assert a.idle_restarts == 0


class TestFastRetransmit:
    def test_three_dupacks_trigger_one_retransmit(self, sim, pair_factory):
        from repro.tcp.segment import Segment

        _, _, a, b = pair_factory.build()
        a.send("bulk", 10 * a.config.mss)
        assert a.snd_nxt > 0

        def dupack():
            return Segment(
                conn_id=a.conn_id, src=b.host.name, dst=a.host.name,
                seq=0, payload_len=0, ack=a.snd_una,
                wnd=b.config.recv_buffer_bytes,
            )

        before = a.retransmits
        a.segment_arrived(dupack())
        a.segment_arrived(dupack())
        assert a.retransmits == before  # two dupacks: not yet
        a.segment_arrived(dupack())
        assert a.retransmits == before + 1  # third triggers
        assert a.cc.losses == 1
        a.segment_arrived(dupack())
        assert a.retransmits == before + 1  # no re-trigger past three

    def test_new_ack_resets_dupack_count(self, sim, pair_factory):
        from repro.tcp.segment import Segment

        _, _, a, b = pair_factory.build()
        a.send("bulk", 10 * a.config.mss)

        def ack(value):
            return Segment(
                conn_id=a.conn_id, src=b.host.name, dst=a.host.name,
                seq=0, payload_len=0, ack=value,
                wnd=b.config.recv_buffer_bytes,
            )

        a.segment_arrived(ack(a.snd_una))
        a.segment_arrived(ack(a.snd_una))
        a.segment_arrived(ack(a.snd_una + a.config.mss))  # progress
        a.segment_arrived(ack(a.snd_una))
        a.segment_arrived(ack(a.snd_una))
        assert a.retransmits == 0  # count restarted after progress


class TestReadSemantics:
    def test_partial_reads_defer_message_completion(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("msg", 6000)
        sim.run(until=SECOND // 10)
        nbytes, messages = b.read(max_bytes=4000)
        assert nbytes == 4000
        assert messages == []  # not fully consumed yet
        nbytes, messages = b.read()
        assert nbytes == 2000
        assert messages == ["msg"]

    def test_read_on_empty_socket(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        assert b.read() == (0, [])

    def test_interleaved_reads_preserve_order(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("m1", 1000)
        a.send("m2", 1000)
        sim.run(until=SECOND // 10)
        collected = []
        while True:
            nbytes, messages = b.read(max_bytes=300)
            collected.extend(messages)
            if nbytes == 0:
                break
        assert collected == ["m1", "m2"]


class TestInstrumentedQueues:
    def test_unacked_queue_counts_bytes(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("m", 5000)
        assert a.qs_unacked.size == 5000
        results = {}
        drain_reader(sim, b, 5000, results)
        sim.run(until=SECOND)
        assert a.qs_unacked.size == 0
        assert a.qs_unacked.total == 5000

    def test_unread_queue_tracks_arrival_to_read(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("m", 5000)
        sim.run(until=SECOND // 10)
        assert b.qs_unread.size == 5000  # arrived, not read
        b.read()
        assert b.qs_unread.size == 0
        assert b.qs_unread.total == 5000

    def test_ackdelay_queue_drains_on_ack(self, sim, pair_factory):
        _, _, a, b = pair_factory.build()
        a.send("m", 5000)
        sim.run(until=SECOND)
        # All acks sent by now (quickack / delack timer / piggyback).
        assert b.qs_ackdelay.size == 0
        assert b.qs_ackdelay.total == 5000

    def test_conservation_across_queues(self, sim, pair_factory):
        """Bytes through unacked == bytes through unread == bytes through
        ackdelay == bytes sent, for a fully drained connection."""
        _, _, a, b = pair_factory.build()
        total = 0
        for index, size in enumerate([100, 4000, 17_000, 1448, 93]):
            a.send(index, size)
            total += size
        results = {}
        drain_reader(sim, b, total, results)
        sim.run(until=SECOND)
        assert a.qs_unacked.total == total
        assert b.qs_unread.total == total
        assert b.qs_ackdelay.total == total


class TestRttEstimation:
    def test_small_sends_inflate_rtt_via_delayed_acks(self, sim, pair_factory):
        """The paper's §2 point: RTT is a poor end-to-end proxy partly
        because delayed acks inflate it.  Small one-way sends only get
        acked by the 40 ms delack timer, so SRTT lands near 40 ms even
        though the wire RTT is 100 us."""
        _, _, a, b = pair_factory.build(propagation_delay_ns=50_000)
        results = {}
        drain_reader(sim, b, 10 * 1000, results)
        for index in range(10):
            sim.call_at(index * 10**7, lambda: a.send("m", 1000))
        sim.run(until=SECOND)
        assert a.rtt.samples > 0
        assert a.rtt.srtt_ns > 10_000_000  # orders beyond the wire RTT

    def test_quickacked_sends_track_wire_rtt(self, sim, pair_factory):
        """Two-MSS sends trigger immediate acks, so SRTT approximates
        the real network round trip."""
        _, _, a, b = pair_factory.build(propagation_delay_ns=50_000)
        mss = a.config.mss
        total = 10 * 2 * mss
        results = {}
        drain_reader(sim, b, total, results)
        for index in range(10):
            sim.call_at(index * 10**7, lambda: a.send("m", 2 * mss))
        sim.run(until=SECOND)
        assert a.rtt.samples > 0
        assert 100_000 <= a.rtt.srtt_ns < 400_000
