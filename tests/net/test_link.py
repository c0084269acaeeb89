"""Tests for the link model."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.nic import Nic, NicConfig
from repro.net.packet import Packet
from repro.net.switch import Star
from repro.sim.rng import RngRegistry
from repro.tcp.segment import Segment
from repro.units import SEC

MSS = NicConfig().mss


def make_link(sim, bandwidth_bps=8e9, delay=1000, **kwargs):
    link = Link(sim, bandwidth_bps, delay, **kwargs)
    arrived = []
    link.attach_receiver(lambda p: arrived.append((sim.now, p)))
    return link, arrived


class TestLink:
    def test_delivery_after_serialization_plus_propagation(self, sim):
        # 8 Gbps = 1 byte/ns. 910B payload -> 1000 wire bytes -> 1000ns.
        link, arrived = make_link(sim, bandwidth_bps=8e9, delay=500)
        link.send(Packet(src="a", dst="b", payload_bytes=910))
        sim.run()
        assert len(arrived) == 1
        assert arrived[0][0] == 1000 + 500

    def test_fifo_pacing(self, sim):
        link, arrived = make_link(sim, bandwidth_bps=8e9, delay=0)
        for _ in range(3):
            link.send(Packet(src="a", dst="b", payload_bytes=910))
        sim.run()
        times = [t for t, _ in arrived]
        assert times == [1000, 2000, 3000]

    def test_statistics(self, sim):
        link, arrived = make_link(sim)
        link.send(Packet(src="a", dst="b", payload_bytes=910))
        sim.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 1000
        assert link.busy_ns == 1000

    def test_send_without_receiver_rejected(self, sim):
        link = Link(sim, 1e9, 0)
        with pytest.raises(NetworkError):
            link.send(Packet(src="a", dst="b", payload_bytes=1))

    def test_double_receiver_rejected(self, sim):
        link, _ = make_link(sim)
        with pytest.raises(NetworkError):
            link.attach_receiver(lambda p: None)

    def test_invalid_parameters(self, sim):
        with pytest.raises(NetworkError):
            Link(sim, 0, 0)
        with pytest.raises(NetworkError):
            Link(sim, 1e9, -1)
        with pytest.raises(NetworkError):
            Link(sim, 1e9, 0, loss_probability=1.0)

    def test_lossy_link_without_rng_gets_deterministic_default(self, make_sim):
        # A lossy link built without an explicit stream derives one from
        # its name, so two identical builds drop the same packets.
        outcomes = []
        for _ in range(2):
            sim = make_sim()
            link = Link(sim, 8e9, 0, name="lossy", loss_probability=0.3)
            arrived = []
            link.attach_receiver(lambda p: arrived.append(p))
            for _ in range(100):
                link.send(Packet(src="a", dst="b", payload_bytes=100))
            sim.run()
            outcomes.append((len(arrived), link.packets_dropped))
        assert outcomes[0] == outcomes[1]
        assert 0 < outcomes[0][1] < 100

    def test_default_loss_rng_varies_by_name_and_seed(self):
        from repro.net.link import default_loss_rng

        def draws(name, seed=0):
            stream = default_loss_rng(name, seed=seed)
            return [stream.random() for _ in range(5)]

        a = draws("x")
        b = draws("x")
        c = draws("y")
        d = draws("x", seed=7)
        assert a == b
        assert a != c
        assert a != d

    def test_loss_drops_packets(self, sim):
        rng = RngRegistry(1).stream("loss")
        link = Link(sim, 8e9, 0, loss_probability=0.5, loss_rng=rng)
        arrived = []
        link.attach_receiver(lambda p: arrived.append(p))
        for _ in range(200):
            link.send(Packet(src="a", dst="b", payload_bytes=100))
        sim.run()
        assert 60 < len(arrived) < 140
        assert link.packets_dropped == 200 - len(arrived)


def segment_packet(conn, length, seq=0):
    segment = Segment(conn_id=conn, src="a", dst="b", seq=seq,
                      payload_len=length, ack=0, wnd=1 << 20)
    return Packet(src="a", dst="b", payload_bytes=length, payload=segment)


class TestTrains:
    """A TSO train on the link: one unit, still counted as its slices."""

    @staticmethod
    def queue_profile(sim):
        # 1 byte/ns and a GRO window long enough for the whole train.
        config = NicConfig(gro_flush_ns=10_000)
        tx = Nic(sim, config, name="tx")
        rx = Nic(sim, config, name="rx")
        rx.attach_rx_handler(lambda batch: None)
        link = Link(sim, 8e9, 0, name="wire")
        tx.attach_egress(link)
        link.attach_receiver(rx.receive)
        profile = []
        # Probes sit between slice boundaries (590 + k*1538 ns), where
        # "started" is unambiguous.
        for t in range(50, 7_500, 100):
            sim.call_at(t, lambda: profile.append((sim.now, link.queued)))

        def burst():
            tx.post(segment_packet(2, 500))  # another flow keeps it busy
            tx.post(segment_packet(1, 4 * MSS + 100))

        sim.call_at(0, burst)
        sim.run()
        return profile, tx.tx_trains

    def test_queued_counts_a_train_as_its_slices(self, make_sim, monkeypatch):
        profile, trains = self.queue_profile(make_sim())
        assert trains == 1
        assert profile[0] == (50, 5)  # the train waits as five slices
        with monkeypatch.context() as patch:
            patch.setattr(Nic, "_send_train", lambda self, packet: False)
            reference, trains = self.queue_profile(make_sim())
        assert trains == 0
        assert profile == reference

    def test_train_into_a_non_nic_receiver_is_rejected(self, sim):
        train = segment_packet(1, 3 * MSS)
        train.wire_count = 3
        link, _ = make_link(sim)
        assert link.peer is None
        with pytest.raises(NetworkError):
            link.send_train(train, 100, 100, False)
        nics = {}
        for name in ("a", "b"):
            nics[name] = Nic(sim, NicConfig(), name=name)
            nics[name].attach_rx_handler(lambda batch: None)
        star = Star.connect(sim, nics)
        uplink = star.uplinks["a"]  # feeds the switch
        assert uplink.peer is None
        with pytest.raises(NetworkError):
            uplink.send_train(train, 100, 100, False)
        # So a NIC behind a switch always slices.
        nics["a"].post(segment_packet(1, 3 * MSS))
        sim.run()
        assert (nics["a"].tx_trains, nics["a"].tx_sliced) == (0, 1)
        assert nics["b"].rx_wire_packets == 3
