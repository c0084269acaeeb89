"""Host composition: cores + NIC + softirq + TCP demux + cost model.

A :class:`Host` mirrors one of the paper's pinned-core machines: the
application thread runs on ``app_core`` and the network receive path on
``net_core``.  :class:`HostCosts` is the machine's cost model; the
``cpu_factor`` multiplier implements the Figure 2 virtual-machine client
(same workload, inflated per-operation CPU costs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import NetworkError
from repro.host.cpu import CpuCore
from repro.host.irq import SoftIrq
from repro.net.nic import Nic, NicConfig
from repro.net.packet import Packet, recycle_packet

if TYPE_CHECKING:
    from repro.tcp.socket import TcpSocket


@dataclass(frozen=True)
class HostCosts:
    """Per-operation CPU costs of a machine (nanoseconds).

    Receive path (charged to the net core by the softirq):

    - ``rx_irq_ns`` — per interrupt;
    - ``rx_delivery_ns`` — per (GRO-merged) *data* delivery: stack
      traversal, TCP receive handling, ack generation, socket wakeup and
      the IPI/scheduling work of waking the application;
    - ``rx_ack_ns`` — per pure-ack delivery (no payload, no wakeup —
      much cheaper than a data delivery);
    - ``rx_wire_packet_ns`` — per constituent wire packet (descriptor and
      DMA handling GRO cannot elide);
    - ``rx_byte_ns`` — per received byte (copy/checksum).

    Transmit path:

    - ``tx_syscall_ns`` — per send system call (app core);
    - ``tx_byte_ns`` — per sent byte copied into the socket buffer (app
      core);
    - ``tx_packet_ns`` — per stack-initiated transmission from softirq
      context, e.g. pure acks and Nagle-released tails (net core).

    Application event loop (charged to the app core):

    - ``wakeup_ns`` — per event-loop iteration (epoll_wait return, read
      syscall, output flush) — the β of Figure 1's cost model;
    - per-request costs (the α and c of Figure 1) live in the
      application configs, not here.
    """

    rx_irq_ns: int = 300
    rx_delivery_ns: int = 12_000
    rx_ack_ns: int = 800
    rx_wire_packet_ns: int = 100
    rx_byte_ns: float = 0.01
    tx_syscall_ns: int = 1_500
    tx_byte_ns: float = 0.05
    tx_packet_ns: int = 500
    wakeup_ns: int = 3_000

    def scaled(self, cpu_factor: float) -> "HostCosts":
        """All costs multiplied by ``cpu_factor`` (VM client model)."""
        if cpu_factor <= 0:
            raise ValueError(f"cpu_factor must be positive, got {cpu_factor}")
        return replace(
            self,
            rx_irq_ns=round(self.rx_irq_ns * cpu_factor),
            rx_delivery_ns=round(self.rx_delivery_ns * cpu_factor),
            rx_ack_ns=round(self.rx_ack_ns * cpu_factor),
            rx_wire_packet_ns=round(self.rx_wire_packet_ns * cpu_factor),
            rx_byte_ns=self.rx_byte_ns * cpu_factor,
            tx_syscall_ns=round(self.tx_syscall_ns * cpu_factor),
            tx_byte_ns=self.tx_byte_ns * cpu_factor,
            tx_packet_ns=round(self.tx_packet_ns * cpu_factor),
            wakeup_ns=round(self.wakeup_ns * cpu_factor),
        )


class Host:
    """One simulated machine."""

    def __init__(
        self,
        sim,
        name: str,
        costs: HostCosts | None = None,
        nic_config: NicConfig | None = None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self._sim = sim
        self.name = name
        self.costs = costs or HostCosts()
        # The run's repro.obs Tracer: the TCP sockets on this host emit
        # their protocol taps to it as ``tcp.event`` records.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.app_core = CpuCore(sim, name=f"{name}.app")
        self.net_core = CpuCore(sim, name=f"{name}.net")
        self.nic = Nic(sim, nic_config or NicConfig(), name=f"{name}.nic")
        self.softirq = SoftIrq(
            sim,
            core=self.net_core,
            irq_cost_ns=self.costs.rx_irq_ns,
            delivery_cost_ns=self.costs.rx_delivery_ns,
            ack_cost_ns=self.costs.rx_ack_ns,
            wire_packet_cost_ns=self.costs.rx_wire_packet_ns,
            byte_cost_ns=self.costs.rx_byte_ns,
            deliver=self._demux,
        )
        self.nic.attach_rx_handler(self.softirq.on_interrupt)
        self._sockets: dict[int, "TcpSocket"] = {}

        # Clock for queue states: TRACK calls this on every queue-size
        # change, so it is a plain closure over the simulator (one call,
        # one attribute load) rather than a method.
        def clock() -> int:
            """Current simulated time (passed to QueueState instances)."""
            return sim.now

        self.clock = clock

    # ------------------------------------------------------------------
    # Socket registry / demux.
    # ------------------------------------------------------------------

    def register_socket(self, conn_id: int, socket: "TcpSocket") -> None:
        """Bind a socket so incoming segments for ``conn_id`` reach it."""
        if conn_id in self._sockets:
            raise NetworkError(
                f"connection {conn_id} already registered on host {self.name!r}"
            )
        self._sockets[conn_id] = socket

    def _demux(self, packet: Packet) -> None:
        segment = packet.payload
        socket = self._sockets.get(segment.conn_id)
        if socket is None:
            raise NetworkError(
                f"host {self.name!r}: no socket for connection {segment.conn_id}"
            )
        socket.segment_arrived(segment)
        # Terminal point of the packet pipeline: the segment has been
        # consumed by the socket and nothing retains the carrier.
        recycle_packet(packet)

    # ------------------------------------------------------------------
    # Cost helpers.
    # ------------------------------------------------------------------

    def send_cost_ns(self, nbytes: int) -> int:
        """App-core cost of one send syscall carrying ``nbytes``."""
        return self.costs.tx_syscall_ns + round(self.costs.tx_byte_ns * nbytes)

    def reset_utilization_windows(self) -> None:
        """Restart utilization accounting on both cores."""
        self.app_core.reset_window()
        self.net_core.reset_window()
