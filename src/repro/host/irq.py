"""The softirq receive context.

The NIC raises an interrupt with a batch of packets; the softirq charges
the net core a fixed per-interrupt cost plus per-packet and per-byte costs,
then hands each packet's TCP segment to the host's demultiplexer.  Because
all of this runs through the (serial) net core, receive processing
naturally queues when packets arrive faster than the core can handle them
— the receive-side congestion at the heart of the paper's motivation.
"""

from __future__ import annotations

from typing import Callable

from repro.host.cpu import CpuCore
from repro.net.packet import Packet


def _noop(_arg) -> None:
    return None


class SoftIrq:
    """Drains NIC RX interrupts onto the net core."""

    def __init__(
        self,
        sim,
        core: CpuCore,
        irq_cost_ns: int,
        delivery_cost_ns: int,
        ack_cost_ns: int,
        wire_packet_cost_ns: int,
        byte_cost_ns: float,
        deliver: Callable[[Packet], None],
    ):
        self._sim = sim
        self._core = core
        self._irq_cost_ns = irq_cost_ns
        self._delivery_cost_ns = delivery_cost_ns
        self._ack_cost_ns = ack_cost_ns
        self._wire_packet_cost_ns = wire_packet_cost_ns
        self._byte_cost_ns = byte_cost_ns
        self._deliver = deliver
        self.interrupts = 0
        self.deliveries = 0
        self.wire_packets = 0

    def on_interrupt(self, batch: list[Packet]) -> None:
        """NIC RX handler: charge costs and deliver each packet.

        The per-interrupt cost is charged once for the batch (the
        amortization interrupt coalescing buys).  Each delivery — a
        GRO-merged aggregate or a lone packet — then costs a fixed
        per-delivery amount (stack traversal, socket handling, wakeup)
        plus a smaller per-wire-packet amount (descriptor/DMA handling
        GRO cannot elide) plus a per-byte amount (copies/checksums).
        """
        self.interrupts += 1
        execute = self._core.execute
        execute(self._irq_cost_ns, _noop, None)
        ack_cost = self._ack_cost_ns
        delivery_cost = self._delivery_cost_ns
        wire_packet_cost = self._wire_packet_cost_ns
        byte_cost = self._byte_cost_ns
        deliver = self._deliver
        for packet in batch:
            self.deliveries += 1
            wire_count = packet.wire_count
            self.wire_packets += wire_count
            base = ack_cost if packet.payload_bytes == 0 else delivery_cost
            cost = (
                base
                + wire_packet_cost * wire_count
                + round(byte_cost * packet.wire_bytes)
            )
            execute(cost, deliver, packet)
