"""NIC model: TX ring + doorbell batching + TSO, and GRO + RX interrupts.

Transmit path.  The TCP stack posts *super-segments* (one flow's
contiguous data, up to ``tso_max_bytes``) to the TX ring and rings the
doorbell.  With ``doorbell_batching`` enabled, descriptors posted while
the NIC is already draining do not ring again (xmit_more-style
amortization — one of the driver-level batching heuristics from §1 of the
paper).  TSO slices each super-segment into MTU-sized wire packets; the
egress link paces them at line rate.  When every slice's fate is known
in advance (a clean wire straight into a GRO NIC, nothing else of the
flow ahead of it, and GRO sure to take all of it into one aggregate)
the super-segment crosses the wire unsliced as one *train* and the peer
builds that aggregate whole (:meth:`Nic.receive_train`).

Receive path.  GRO coalesces contiguous same-flow data packets into one
delivery, flushed when a coalescing window expires, the aggregate reaches
``gro_max_bytes``, or a non-mergeable packet (pure ack, out-of-order,
retransmit) arrives for the flow.  Deliveries are handed to the host via
an interrupt; an optional interrupt-coalescing window batches several
deliveries per interrupt.

GRO matters to the paper's story twice: it amortizes per-packet receive
costs over bursts (bigger bursts — e.g. Nagle-coalesced request trains —
amortize better), and it makes the receiver acknowledge a whole burst at
once, which bounds the Nagle tail-segment stall at roughly one RTT
instead of a delayed-ack timeout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import NetworkError
from repro.net.packet import (
    ETHERNET_OVERHEAD,
    TCPIP_HEADER,
    Packet,
    acquire_packet,
    recycle_packet,
)
from repro.units import serialization_delay_ns


@dataclass(frozen=True)
class NicConfig:
    """NIC tunables.

    ``mtu`` bounds TCP payload per wire packet at ``mtu - TCPIP_HEADER``.
    ``tso_max_bytes`` bounds the super-segment payload per TX descriptor
    (64 KiB mirrors Linux's GSO_MAX_SIZE).  ``gro_flush_ns`` is the GRO
    coalescing window measured from the first held packet; 0 disables
    GRO.  ``gro_max_bytes`` bounds one delivery's aggregation (64 KiB
    mirrors Linux).  ``rx_coalesce_ns`` batches interrupt delivery; 0
    means one interrupt per (GRO-merged) delivery.
    """

    mtu: int = 1500
    tso_max_bytes: int = 64 * 1024
    tx_ring_size: int = 4096
    doorbell_batching: bool = True
    gro_flush_ns: int = 3_000
    gro_max_bytes: int = 64 * 1024
    rx_coalesce_ns: int = 0

    @property
    def mss(self) -> int:
        """Maximum TCP payload per wire packet."""
        return self.mtu - TCPIP_HEADER


# Per-frame bytes every wire packet pays beyond its TCP payload and options.
_FRAME_OVERHEAD = TCPIP_HEADER + ETHERNET_OVERHEAD


class _GroFlow:
    """Per-flow GRO aggregation state."""

    __slots__ = ("packet", "timer")

    def __init__(self, packet: Packet, timer):
        self.packet = packet
        self.timer = timer


class Nic:
    """One host's NIC, bound to an egress :class:`~repro.net.link.Link`."""

    def __init__(self, sim, config: NicConfig, name: str = "nic"):
        self._sim = sim
        self.config = config
        self.name = name
        # Config scalars rebound as plain attributes: the config is
        # frozen, and ``config.mss`` in particular is a computing
        # property the RX path would otherwise evaluate per packet.
        self._mss = config.mss
        self._tso_max_bytes = config.tso_max_bytes
        self._tx_ring_size = config.tx_ring_size
        self._doorbell_batching = config.doorbell_batching
        self._gro_flush_ns = config.gro_flush_ns
        self._gro_max_bytes = config.gro_max_bytes
        self._rx_coalesce_ns = config.rx_coalesce_ns
        self._egress = None
        self._tx_ring: deque[Packet] = deque()
        self._tx_active = False
        self._rx_handler: Callable[[list[Packet]], None] | None = None
        self._rx_fault_hook: Callable[[Packet], int] | None = None
        self._gro_flows: dict[tuple[int, str], _GroFlow] = {}
        self._irq_pending: list[Packet] = []
        self._irq_timer = None
        # Statistics.
        self.doorbells = 0
        self.tx_descriptors = 0
        self.tx_wire_packets = 0
        self.tx_sliced = 0  # super-segments sliced into wire packets
        self.tx_trains = 0  # super-segments sent whole as trains
        self.rx_wire_packets = 0
        self.rx_fault_drops = 0
        self.rx_deliveries = 0
        self.rx_interrupts = 0

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach_egress(self, link) -> None:
        """Connect the transmit side to a link."""
        if self._egress is not None:
            raise NetworkError(f"NIC {self.name!r} already has an egress link")
        self._egress = link

    def attach_rx_handler(self, handler: Callable[[list[Packet]], None]) -> None:
        """Set the host callback invoked per RX interrupt with deliveries."""
        if self._rx_handler is not None:
            raise NetworkError(f"NIC {self.name!r} already has an RX handler")
        self._rx_handler = handler

    def set_rx_fault_hook(self, hook: Callable[[Packet], int] | None) -> None:
        """Attach an ingress fault hook (see :mod:`repro.faults`).

        Consulted per wire packet before GRO: a negative verdict drops
        the packet (ring overrun), a positive one defers its processing
        by that many ns (interrupt starvation), zero passes it through.
        """
        if hook is not None and self._rx_fault_hook is not None:
            raise NetworkError(f"NIC {self.name!r} already has an RX fault hook")
        self._rx_fault_hook = hook

    # ------------------------------------------------------------------
    # Transmit.
    # ------------------------------------------------------------------

    def tx_ring_available(self) -> int:
        """Free descriptor slots in the TX ring."""
        return self.config.tx_ring_size - len(self._tx_ring)

    @property
    def tx_ring_occupancy(self) -> int:
        """Descriptors currently queued (the auto-corking signal, §2)."""
        return len(self._tx_ring) + (1 if self._tx_active else 0)

    def post(self, packet: Packet) -> None:
        """Post one descriptor and (if the NIC is idle) ring the doorbell."""
        if packet.payload_bytes > self._tso_max_bytes:
            raise NetworkError(
                f"super-segment of {packet.payload_bytes}B exceeds TSO max "
                f"{self._tso_max_bytes}B"
            )
        if len(self._tx_ring) >= self._tx_ring_size:
            raise NetworkError(f"TX ring overflow on NIC {self.name!r}")
        self._tx_ring.append(packet)
        self.tx_descriptors += 1
        if not self._tx_active or not self._doorbell_batching:
            self.doorbells += 1
        if not self._tx_active:
            self._tx_active = True
            self._drain()

    def _drain(self) -> None:
        # Hand every posted descriptor to the link; the link's own FIFO
        # paces the wire at line rate, so the ring drains instantly from
        # the simulator's point of view.  The ring still exists for
        # occupancy-based decisions (auto-corking) and overflow checks:
        # occupancy is cleared one "drain tick" later, modelling the
        # completion interrupt lag that auto-corking keys off.
        mss = self._mss
        while self._tx_ring:
            packet = self._tx_ring.popleft()
            if packet.payload_bytes > mss and self._send_train(packet):
                continue
            for wire_packet in self._tso_slice(packet):
                self._egress.send(wire_packet)
                self.tx_wire_packets += 1
        self._sim.call_after(0, self._tx_done)

    def _tx_done(self) -> None:
        if self._tx_ring:
            self._drain()
        else:
            self._tx_active = False

    def _send_train(self, packet: Packet) -> bool:
        """Send a super-segment unsliced, as one train, if per-slice GRO
        at the peer would rebuild it exactly; False sends nothing.

        That holds when the egress wire is clean and feeds a NIC that
        runs GRO with the same MSS and no RX fault hook, the segment is
        not a retransmit, no packet of its flow is on the wire or held by
        the peer's GRO, its slices land within the GRO flush window, and
        it fits under ``gro_max_bytes``.
        """
        link = self._egress
        peer = link.peer
        segment = packet.payload
        mss = self._mss
        if (
            peer is None
            or not link.clean
            or peer._rx_fault_hook is not None
            or peer._gro_flush_ns <= 0
            or peer._mss != mss
            or packet.payload_bytes >= peer._gro_max_bytes
            or not hasattr(segment, "split_at")
            or segment.is_retransmit
        ):
            return False
        conn_id = segment.conn_id
        src = segment.src
        if (conn_id, src) in peer._gro_flows:
            return False
        if link.carries_flow(conn_id, src):
            return False
        slices = -(-packet.payload_bytes // mss)
        tail = packet.payload_bytes - (slices - 1) * mss
        # As sliced: options ride the tail, every slice pays the headers.
        options_bytes = segment.options_bytes()
        bandwidth = link.bandwidth_bps
        head_ns = serialization_delay_ns(mss + _FRAME_OVERHEAD, bandwidth)
        tail_ns = serialization_delay_ns(
            tail + options_bytes + _FRAME_OVERHEAD, bandwidth
        )
        # The peer's flush timer starts when the first slice lands.
        if (slices - 2) * head_ns + tail_ns >= peer._gro_flush_ns:
            return False
        packet.wire_count = slices
        packet.options_bytes = options_bytes
        # A full, unpushed last slice leaves the aggregate held for the
        # timer: the peer can take the train as soon as its head lands.
        link.send_train(
            packet, head_ns, tail_ns, tail == mss and not segment.psh
        )
        self.tx_wire_packets += slices
        self.tx_trains += 1
        return True

    def _tso_slice(self, packet: Packet) -> list[Packet]:
        """Slice a super-segment into MTU-bounded wire packets."""
        mss = self._mss
        if packet.payload_bytes <= mss:
            return [packet]
        segment = packet.payload
        if segment is None or not hasattr(segment, "split_at"):
            raise NetworkError(
                f"cannot TSO-slice payload of type {type(segment).__name__}"
            )
        self.tx_sliced += 1
        src = packet.src
        dst = packet.dst
        slices: list[Packet] = []
        rest = segment
        while rest is not None:
            head, rest = rest.split_at(mss)
            slices.append(
                acquire_packet(
                    src,
                    dst,
                    head.payload_len,
                    payload=head,
                    options_bytes=head.options_bytes(),
                )
            )
        recycle_packet(packet)  # the super-segment carrier is consumed
        return slices

    # ------------------------------------------------------------------
    # Receive: GRO, then interrupt.
    # ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Ingress entry point (the link's receiver callback)."""
        if self._rx_handler is None:
            raise NetworkError(f"NIC {self.name!r} has no RX handler")
        self.rx_wire_packets += 1
        if self._rx_fault_hook is not None:
            verdict = self._rx_fault_hook(packet)
            if verdict < 0:
                self.rx_fault_drops += 1
                recycle_packet(packet)
                return
            if verdict > 0:
                self._sim.call_after(verdict, lambda: self._ingress(packet))
                return
        self._ingress(packet)

    def _ingress(self, packet: Packet) -> None:
        if self._gro_flush_ns <= 0:
            self._deliver(packet)
            return
        self._gro_receive(packet)

    def _gro_receive(self, packet: Packet) -> None:
        """GRO aggregation rules, as in the Linux receive path:

        - pure acks flush the flow's aggregate and pass through;
        - **sub-MSS data packets are never aggregated**: they flush the
          pending aggregate and are delivered standalone (a short packet
          signals end-of-burst — this is what makes a Nagle-off sender's
          pushed tails expensive at the receiver);
        - a full-MSS packet with **PSH** is merged and then flushes the
          aggregate immediately;
        - other full-MSS packets aggregate until ``gro_max_bytes`` or
          the ``gro_flush_ns`` window expires.
        """
        segment = packet.payload
        if segment is None or not hasattr(segment, "can_merge"):
            self._deliver(packet)
            return
        key = (segment.conn_id, segment.src)
        flow = self._gro_flows.get(key)
        if segment.payload_len < self._mss:  # includes pure acks
            if flow is not None:
                self._flush_flow(key)
            self._deliver(packet)
            return
        if flow is not None:
            old = flow.packet
            held = old.payload
            merged_size = held.payload_len + segment.payload_len
            gro_max = self._gro_max_bytes
            if held.can_merge(segment) and merged_size <= gro_max:
                flow.packet = acquire_packet(
                    packet.src,
                    packet.dst,
                    merged_size,
                    payload=held.merge(segment),
                    options_bytes=max(old.options_bytes, packet.options_bytes),
                    wire_count=old.wire_count + packet.wire_count,
                )
                # Both carriers are consumed by the merge.
                recycle_packet(old)
                recycle_packet(packet)
                if segment.psh or merged_size >= gro_max:
                    self._flush_flow(key)
                return
            self._flush_flow(key)
        if segment.psh:
            self._deliver(packet)
            return
        self._hold(key, packet)

    def receive_train(self, packet: Packet) -> None:
        """Ingress for a train (see :meth:`Link.send_train`): hold or
        deliver exactly what GRO builds from its slices one by one.

        The link hands the train over when its first slice lands if the
        last slice is a full MSS without PSH: GRO holds the aggregate
        for its timer and the later slices only merge into it, so it is
        held whole now.  Otherwise the train arrives with its last
        slice, which either merges and flushes the whole aggregate (PSH)
        or, short of an MSS, flushes the other slices' aggregate and is
        delivered on its own.
        """
        if self._rx_handler is None:
            raise NetworkError(f"NIC {self.name!r} has no RX handler")
        slices = packet.wire_count
        self.rx_wire_packets += slices
        segment = packet.payload
        head_bytes = (slices - 1) * self._mss
        # The segment's own split and merge build the aggregates, so
        # every field is what slicing and merging slice by slice gives.
        head, tail = segment.split_at(head_bytes)
        head.wire_count = slices - 1
        if tail.payload_len < self._mss:
            self._deliver(
                acquire_packet(
                    packet.src,
                    packet.dst,
                    head_bytes,
                    payload=head,
                    wire_count=slices - 1,
                )
            )
            packet.payload_bytes = tail.payload_len
            packet.payload = tail
            packet.wire_count = 1
            self._deliver(packet)
            return
        packet.payload = head.merge(tail)
        if segment.psh:
            self._deliver(packet)
            return
        self._hold((segment.conn_id, segment.src), packet)

    def _hold(self, key: tuple[int, str], packet: Packet) -> None:
        timer = self._sim.call_after(
            self._gro_flush_ns, lambda: self._flush_flow(key)
        )
        self._gro_flows[key] = _GroFlow(packet, timer)

    def _flush_flow(self, key: tuple[int, str]) -> None:
        flow = self._gro_flows.pop(key, None)
        if flow is None:
            return
        self._sim.cancel(flow.timer)
        self._deliver(flow.packet)

    def _deliver(self, packet: Packet) -> None:
        self.rx_deliveries += 1
        if self._rx_coalesce_ns <= 0:
            self.rx_interrupts += 1
            self._rx_handler([packet])
            return
        self._irq_pending.append(packet)
        if self._irq_timer is None:
            self._irq_timer = self._sim.call_after(
                self._rx_coalesce_ns, self._fire_interrupt
            )

    def _fire_interrupt(self) -> None:
        self._irq_timer = None
        batch, self._irq_pending = self._irq_pending, []
        if batch:
            self.rx_interrupts += 1
            self._rx_handler(batch)
