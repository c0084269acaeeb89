"""Tests for the NIC: TSO, doorbells, GRO rules, interrupt coalescing."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.nic import Nic, NicConfig
from repro.net.packet import Packet
from repro.tcp.segment import Segment

MSS = NicConfig().mss  # 1448


def make_segment(seq=0, length=MSS, psh=False, ack=0, conn=1, src="a", dst="b"):
    return Segment(
        conn_id=conn, src=src, dst=dst, seq=seq, payload_len=length,
        ack=ack, wnd=1 << 20, psh=psh,
    )


def make_tx_nic(sim, config=None):
    nic = Nic(sim, config or NicConfig(), name="tx")
    link = Link(sim, 100e9, 0, name="wire")
    nic.attach_egress(link)
    arrived = []
    link.attach_receiver(lambda p: arrived.append(p))
    return nic, arrived


def make_rx_nic(sim, config=None):
    nic = Nic(sim, config or NicConfig(), name="rx")
    delivered = []
    nic.attach_rx_handler(lambda batch: delivered.extend(batch))
    return nic, delivered


def segment_packet(segment):
    return Packet(
        src=segment.src, dst=segment.dst,
        payload_bytes=segment.payload_len, payload=segment,
    )


class TestTso:
    def test_small_packet_goes_unsliced(self, sim):
        nic, arrived = make_tx_nic(sim)
        nic.post(segment_packet(make_segment(length=500)))
        sim.run()
        assert len(arrived) == 1
        assert nic.tx_wire_packets == 1

    def test_super_segment_sliced_to_mss(self, sim):
        nic, arrived = make_tx_nic(sim)
        nic.post(segment_packet(make_segment(length=3 * MSS + 100)))
        sim.run()
        assert len(arrived) == 4
        sizes = [p.payload_bytes for p in arrived]
        assert sizes == [MSS, MSS, MSS, 100]
        # Sequence numbers are contiguous.
        seqs = [p.payload.seq for p in arrived]
        assert seqs == [0, MSS, 2 * MSS, 3 * MSS]

    def test_psh_rides_last_slice_only(self, sim):
        nic, arrived = make_tx_nic(sim)
        nic.post(segment_packet(make_segment(length=2 * MSS + 10, psh=True)))
        sim.run()
        assert [p.payload.psh for p in arrived] == [False, False, True]

    def test_oversized_descriptor_rejected(self, sim):
        nic, _ = make_tx_nic(sim)
        with pytest.raises(NetworkError):
            nic.post(segment_packet(make_segment(length=65 * 1024)))

    def test_ring_overflow_rejected(self, sim):
        config = NicConfig(tx_ring_size=2)
        nic, _ = make_tx_nic(sim, config)
        nic.post(segment_packet(make_segment(length=100)))
        # The drain is synchronous-ish; fill beyond capacity in one tick
        # by posting before running the sim.
        nic._tx_ring.extend([None, None])  # simulate a stuck ring
        with pytest.raises(NetworkError):
            nic.post(segment_packet(make_segment(length=100)))


class TestDoorbells:
    def test_doorbell_batching_rings_once_when_active(self, sim):
        nic, _ = make_tx_nic(sim)

        def burst():
            for seq in range(3):
                nic.post(segment_packet(make_segment(seq=seq * 100, length=100)))

        sim.call_at(0, burst)
        sim.run()
        assert nic.tx_descriptors == 3
        assert nic.doorbells == 1

    def test_no_batching_rings_every_time(self, sim):
        nic, _ = make_tx_nic(sim, NicConfig(doorbell_batching=False))

        def burst():
            for seq in range(3):
                nic.post(segment_packet(make_segment(seq=seq * 100, length=100)))

        sim.call_at(0, burst)
        sim.run()
        assert nic.doorbells == 3


class TestGro:
    def test_full_segments_aggregate_until_window(self, sim):
        nic, delivered = make_rx_nic(sim)
        for index in range(3):
            nic.receive(segment_packet(make_segment(seq=index * MSS)))
        sim.run()
        assert len(delivered) == 1
        assert delivered[0].payload_bytes == 3 * MSS
        assert delivered[0].wire_count == 3
        assert nic.rx_wire_packets == 3
        assert nic.rx_deliveries == 1

    def test_window_flush_time(self, sim):
        config = NicConfig(gro_flush_ns=3000)
        nic, delivered = make_rx_nic(sim, config)
        times = []
        nic._rx_handler = lambda batch: times.append(sim.now)
        nic.receive(segment_packet(make_segment()))
        sim.run()
        assert times == [3000]

    def test_psh_full_segment_merges_then_flushes_immediately(self, sim):
        nic, delivered = make_rx_nic(sim)
        nic.receive(segment_packet(make_segment(seq=0)))
        nic.receive(segment_packet(make_segment(seq=MSS, psh=True)))
        assert len(delivered) == 1  # no window wait
        assert delivered[0].payload_bytes == 2 * MSS
        assert delivered[0].payload.psh

    def test_sub_mss_never_aggregated(self, sim):
        """A short packet flushes the aggregate and stands alone — the
        Nagle-off tail's fate."""
        nic, delivered = make_rx_nic(sim)
        nic.receive(segment_packet(make_segment(seq=0)))
        nic.receive(segment_packet(make_segment(seq=MSS, length=500, psh=True)))
        assert len(delivered) == 2
        assert delivered[0].payload_bytes == MSS
        assert delivered[1].payload_bytes == 500

    def test_pure_ack_flushes_and_passes_through(self, sim):
        nic, delivered = make_rx_nic(sim)
        nic.receive(segment_packet(make_segment(seq=0)))
        ack = make_segment(seq=MSS, length=0, ack=100)
        nic.receive(segment_packet(ack))
        assert len(delivered) == 2
        assert delivered[1].payload.is_pure_ack

    def test_non_contiguous_flushes(self, sim):
        nic, delivered = make_rx_nic(sim)
        nic.receive(segment_packet(make_segment(seq=0)))
        nic.receive(segment_packet(make_segment(seq=5 * MSS)))  # gap
        assert len(delivered) == 1  # first flushed standalone
        sim.run()
        assert len(delivered) == 2

    def test_size_cap_flushes(self, sim):
        config = NicConfig(gro_max_bytes=2 * MSS)
        nic, delivered = make_rx_nic(sim, config)
        for index in range(4):
            nic.receive(segment_packet(make_segment(seq=index * MSS)))
        sim.run()
        assert [p.payload_bytes for p in delivered] == [2 * MSS, 2 * MSS]

    def test_flows_do_not_mix(self, sim):
        nic, delivered = make_rx_nic(sim)
        nic.receive(segment_packet(make_segment(seq=0, conn=1)))
        nic.receive(segment_packet(make_segment(seq=0, conn=2)))
        sim.run()
        assert len(delivered) == 2

    def test_gro_disabled_delivers_per_packet(self, sim):
        config = NicConfig(gro_flush_ns=0)
        nic, delivered = make_rx_nic(sim, config)
        for index in range(3):
            nic.receive(segment_packet(make_segment(seq=index * MSS)))
        assert len(delivered) == 3


class TestInterruptCoalescing:
    def test_coalescing_batches_deliveries(self, sim):
        config = NicConfig(gro_flush_ns=0, rx_coalesce_ns=10_000)
        nic = Nic(sim, config)
        batches = []
        nic.attach_rx_handler(lambda batch: batches.append(list(batch)))
        for index in range(3):
            nic.receive(segment_packet(make_segment(seq=index * MSS)))
        sim.run()
        assert len(batches) == 1
        assert len(batches[0]) == 3
        assert nic.rx_interrupts == 1


# ----------------------------------------------------------------------
# TSO trains: a super-segment crossing the wire whole must leave the
# receiver exactly where its slices, one by one, would have.
# ----------------------------------------------------------------------

GAP = 100  # ns between slice arrivals: well inside the GRO window

TRAIN_CASES = {
    "option_on_tail": dict(length=3 * MSS + 100, psh=True,
                           options={"e2e": "state"}),
    "sack_blocks": dict(length=2 * MSS + 700,
                        sack=((10_000, 11_000), (12_000, 13_000))),
    "psh_full_tail": dict(length=3 * MSS, psh=True, options={"e2e": "state"}),
    "sub_mss_tail": dict(length=4 * MSS + 1),
    "held_exact_multiple": dict(length=3 * MSS, options={"e2e": "state"},
                                sack=((10_000, 11_000),)),
    "two_slices": dict(length=MSS + 200, psh=True),
}


def train_segment(length, psh=False, options=None, sack=()):
    return Segment(
        conn_id=1, src="a", dst="b", seq=5_000, payload_len=length,
        ack=777, wnd=1 << 20, options=dict(options or {}), psh=psh,
        sack_blocks=sack,
    )


def delivery(sim, packet):
    segment = packet.payload
    return (
        sim.now,
        packet.payload_bytes,
        packet.options_bytes,
        packet.wire_count,
        {name: getattr(segment, name) for name in Segment.__slots__},
    )


def recording_rx_nic(sim, config):
    nic = Nic(sim, config, name="rx")
    delivered = []
    nic.attach_rx_handler(
        lambda batch: delivered.extend(delivery(sim, p) for p in batch)
    )
    return nic, delivered


class TestTrainAggregate:
    """``Nic.receive_train`` against the slices fed to ``_gro_receive``."""

    @pytest.mark.parametrize("coalesce_ns", [0, 2_000])
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_train_matches_its_slices(self, make_sim, case, coalesce_ns):
        config = NicConfig(rx_coalesce_ns=coalesce_ns)
        spec = TRAIN_CASES[case]

        sim = make_sim()
        rx, per_slice = recording_rx_nic(sim, config)
        slices = Nic(sim, config)._tso_slice(
            segment_packet(train_segment(**spec))
        )
        for index, packet in enumerate(slices):
            sim.call_at(index * GAP, lambda p=packet: rx._gro_receive(p))
        sim.run()

        sim = make_sim()
        rx_train, as_train = recording_rx_nic(sim, config)
        segment = train_segment(**spec)
        train = Packet(
            src="a", dst="b", payload_bytes=segment.payload_len,
            payload=segment, options_bytes=segment.options_bytes(),
            wire_count=len(slices),
        )
        # The link hands a train over when its first slice lands if GRO
        # will hold the aggregate (full, unpushed last slice), else when
        # the last one does.
        held = segment.payload_len % MSS == 0 and not segment.psh
        arrival = 0 if held else (len(slices) - 1) * GAP
        sim.call_at(arrival, lambda: rx_train.receive_train(train))
        sim.run()

        assert as_train == per_slice
        assert rx_train.rx_wire_packets == len(slices)
        assert rx_train.rx_deliveries == rx.rx_deliveries
        assert rx_train.rx_interrupts == rx.rx_interrupts
        if held:  # flushed by the GRO timer, armed at the first arrival
            flush = config.gro_flush_ns + coalesce_ns
            assert [t for t, *_ in per_slice] == [flush]


def wire_pair(sim, config, bandwidth_bps=100e9, delay=1_000,
              peer_config=None, loss_probability=0.0):
    tx = Nic(sim, config, name="tx")
    rx, delivered = recording_rx_nic(sim, peer_config or config)
    link = Link(sim, bandwidth_bps, delay, name="wire",
                loss_probability=loss_probability)
    tx.attach_egress(link)
    link.attach_receiver(rx.receive)
    return tx, rx, link, delivered


def per_slice_only(monkeypatch):
    monkeypatch.setattr(Nic, "_send_train", lambda self, packet: False)


class TestTrainWire:
    """A train through a real link against the forced per-slice path."""

    @staticmethod
    def run(make_sim, spec, config=NicConfig(), **wire):
        sim = make_sim()
        tx, rx, link, delivered = wire_pair(sim, config, **wire)
        tx.post(segment_packet(train_segment(**spec)))
        sim.run()
        counts = (
            link.packets_sent, link.bytes_sent, link.busy_ns,
            tx.tx_wire_packets, rx.rx_wire_packets, rx.rx_deliveries,
        )
        return delivered, counts, (tx.tx_trains, tx.tx_sliced)

    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_same_deliveries_and_counters(self, make_sim, monkeypatch, case):
        spec = TRAIN_CASES[case]
        delivered, counts, formed = self.run(make_sim, spec)
        assert formed == (1, 0)
        with monkeypatch.context() as patch:
            per_slice_only(patch)
            reference, reference_counts, sliced = self.run(make_sim, spec)
        assert sliced == (0, 1)
        assert delivered == reference
        assert counts == reference_counts

    def test_propagation_shorter_than_the_train(self, make_sim, monkeypatch):
        """Held trains are handed over before they finish serializing."""
        spec = TRAIN_CASES["held_exact_multiple"]
        delivered, counts, formed = self.run(make_sim, spec, delay=10)
        assert formed == (1, 0)
        with monkeypatch.context() as patch:
            per_slice_only(patch)
            reference, reference_counts, _ = self.run(make_sim, spec, delay=10)
        assert delivered == reference
        assert counts == reference_counts

    # At 1 byte/ns three full slices land 2 x 1,538 ns apart from the
    # first: with that exact window GRO's timer beats the last slice.
    @pytest.mark.parametrize("flush_ns, trains", [(3_076, 0), (3_077, 1)])
    def test_slices_must_land_inside_the_gro_window(
        self, make_sim, monkeypatch, flush_ns, trains
    ):
        spec = dict(length=3 * MSS)
        config = NicConfig(gro_flush_ns=flush_ns)
        wire = dict(bandwidth_bps=8e9, delay=0)
        delivered, _, formed = self.run(make_sim, spec, config, **wire)
        assert formed == (trains, 1 - trains)
        with monkeypatch.context() as patch:
            per_slice_only(patch)
            reference, _, _ = self.run(make_sim, spec, config, **wire)
        assert delivered == reference

    @pytest.mark.parametrize(
        "why, config, wire",
        [
            ("peer GRO off", NicConfig(gro_flush_ns=0), {}),
            ("slices outlast the GRO window", NicConfig(),
             {"bandwidth_bps": 1e9}),
            ("over gro_max_bytes", NicConfig(gro_max_bytes=2 * MSS), {}),
            ("peer MSS differs", NicConfig(),
             {"peer_config": NicConfig(mtu=9000)}),
            ("lossy link", NicConfig(), {"loss_probability": 0.1}),
        ],
    )
    def test_declined(self, make_sim, why, config, wire):
        spec = TRAIN_CASES["sub_mss_tail"]
        _, _, formed = self.run(make_sim, spec, config, **wire)
        assert formed == (0, 1), why

    @pytest.mark.parametrize("hooked", ["link", "peer"])
    def test_declined_under_a_fault_hook(self, sim, hooked):
        tx, rx, link, _ = wire_pair(sim, NicConfig())
        if hooked == "link":
            link.set_fault_hook(lambda packet: 0)
        else:
            rx.set_rx_fault_hook(lambda packet: 0)
        tx.post(segment_packet(train_segment(length=3 * MSS)))
        sim.run()
        assert (tx.tx_trains, tx.tx_sliced) == (0, 1)

    def test_declined_for_a_retransmit(self, sim):
        tx, _, _, _ = wire_pair(sim, NicConfig())
        segment = train_segment(length=3 * MSS)
        segment.is_retransmit = True
        tx.post(segment_packet(segment))
        sim.run()
        assert (tx.tx_trains, tx.tx_sliced) == (0, 1)

    # The first burst is on the wire at 0 ns and held by the peer's GRO
    # (arrived at 1,123 ns, flushed at 4,123 ns) at 2,000 ns.
    @pytest.mark.parametrize("gap", [0, 2_000])
    def test_declined_behind_its_own_flow(self, sim, gap):
        """Back-to-back bursts of one flow: the second would merge into
        the first's aggregate, so it is sliced."""
        tx, _, _, _ = wire_pair(sim, NicConfig())
        tx.post(segment_packet(train_segment(length=3 * MSS)))
        second = train_segment(length=2 * MSS + 100)
        second.seq += 3 * MSS
        sim.call_at(gap, lambda: tx.post(segment_packet(second)))
        sim.run()
        assert (tx.tx_trains, tx.tx_sliced) == (1, 1)
