"""A unidirectional link with bandwidth, propagation delay and optional loss.

The link is callback-based (no simulation processes) to keep the per-packet
event count low: :meth:`Link.send` queues the packet, a self-scheduling
callback chain serializes packets one at a time at link bandwidth, and each
packet is delivered to the receiver callback one propagation delay after
its serialization completes (store-and-forward).

Loss is opt-in (``loss_probability``) and exists mainly to exercise the TCP
retransmission machinery in tests; the paper's testbed is lossless.
Richer misbehavior (bursty loss, jitter/reordering, blackouts) is
injected through an optional per-packet fault hook — see
:mod:`repro.faults` — consulted only when attached, so a clean link
pays one ``is None`` check per packet.

A link that feeds a :class:`~repro.net.nic.Nic` directly also carries
*trains* (:meth:`Link.send_train`): a TSO super-segment the sending NIC
posted unsliced because every slice's fate is known in advance.  A
train occupies the wire for the sum of its slices' serialization times
and costs one serialization-end event and one handover event instead
of one of each per slice; docs/PERFORMANCE.md ("TSO trains") has the
rules and why the outcome is the per-slice one.
"""

from __future__ import annotations

import hashlib
from collections import deque
from itertools import chain
from typing import Callable

from repro.errors import NetworkError
from repro.net.nic import Nic
from repro.net.packet import Packet, recycle_packet
from repro.sim.rng import RngStream
from repro.units import serialization_delay_ns


def default_loss_rng(name: str, seed: int = 0) -> RngStream:
    """A deterministic loss stream derived from (seed, link name).

    Mirrors :class:`~repro.sim.rng.RngRegistry`'s derivation, so a lossy
    link built without an explicit stream is still reproducible: the
    same name and seed always yield the same drop sequence.  Topology
    helpers pass the simulation registry's seed; a bare :class:`Link`
    falls back to seed 0.
    """
    digest = hashlib.sha256(f"{seed}/link-loss/{name}".encode()).digest()
    return RngStream(int.from_bytes(digest[:8], "big"))


class Link:
    """One direction of a wire: FIFO, fixed bandwidth, fixed delay."""

    def __init__(
        self,
        sim,
        bandwidth_bps: float,
        propagation_delay_ns: int,
        name: str = "link",
        loss_probability: float = 0.0,
        loss_rng=None,
    ):
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay_ns < 0:
            raise NetworkError(f"negative propagation delay {propagation_delay_ns}")
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError(f"loss probability out of range: {loss_probability}")
        if loss_probability > 0.0 and loss_rng is None:
            # Deterministic by construction: lossy runs stay reproducible
            # even when the caller forgets to supply a stream.
            loss_rng = default_loss_rng(name)
        self._sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_ns = propagation_delay_ns
        self.loss_probability = loss_probability
        self._loss_rng = loss_rng
        self._fault_hook: Callable[[Packet], int] | None = None
        self._receiver: Callable[[Packet], None] | None = None
        # The NIC whose ingress is the receiver; None behind a switch, a
        # mailbox or a test callback.
        self.peer: Nic | None = None
        self._queue: deque[Packet] = deque()
        self._serializing = False
        self._current: Packet | None = None  # the packet on the wire
        # Trains in the queue are the packets with ``wire_count > 1``;
        # their (head slice ns, tail slice ns, early handover) ride in
        # this FIFO in queue order, and ``_train`` holds the one on the
        # wire as (start ns, head slice ns, slices, early handover).
        self._trains: deque[tuple[int, int, bool]] = deque()
        self._queued_slices = 0  # queued trains' slices beyond the first
        self._train: tuple[int, int, int, bool] | None = None
        # Packets in flight with the nominal propagation delay.  All such
        # deliveries share one fixed delay, so completion order equals
        # send order and a FIFO plus one bound-method callback replaces a
        # per-packet closure.  Jittered packets (positive fault verdicts)
        # bypass this queue and keep their own closure.
        self._flight: deque[Packet] = deque()
        # Statistics.
        self.packets_sent = 0
        self.packets_dropped = 0
        self.fault_drops = 0
        self.bytes_sent = 0
        self.busy_ns = 0

    def set_fault_hook(self, hook: Callable[[Packet], int] | None) -> None:
        """Attach a per-packet fault hook (see :mod:`repro.faults`).

        The hook is consulted once per serialized packet and returns a
        verdict: negative = drop, otherwise extra delivery delay in ns
        (independent per packet, so positive verdicts reorder).
        """
        if hook is not None and self._fault_hook is not None:
            raise NetworkError(f"link {self.name!r} already has a fault hook")
        self._fault_hook = hook

    def attach_receiver(self, receiver: Callable[[Packet], None]) -> None:
        """Set the callback invoked on packet arrival at the far end."""
        if self._receiver is not None:
            raise NetworkError(f"link {self.name!r} already has a receiver")
        self._receiver = receiver
        owner = getattr(receiver, "__self__", None)
        if isinstance(owner, Nic) and receiver == owner.receive:
            self.peer = owner

    @property
    def clean(self) -> bool:
        """Whether every packet is delivered on schedule: no fault hook
        and no random loss."""
        return self._fault_hook is None and self._loss_rng is None

    @property
    def queued(self) -> int:
        """Wire packets waiting to be serialized (excluding the one on
        the wire).  A train counts as its slices not yet started."""
        waiting = len(self._queue) + self._queued_slices
        train = self._train
        if train is not None:
            start, head_ns, slices, _ = train
            # Slice k starts k head slices after the train does.
            started = (self._sim.now - start) // max(head_ns, 1) + 1
            if started < slices:
                waiting += slices - started
        return waiting

    def carries_flow(self, conn_id: int, src: str) -> bool:
        """Whether a packet of the flow ``(conn_id, src)`` is queued, on
        the wire or in flight on this link."""
        for packet in chain(self._queue, self._flight, (self._current,)):
            segment = getattr(packet, "payload", None)
            if (
                getattr(segment, "conn_id", None) == conn_id
                and segment.src == src
            ):
                return True
        return False

    def send(self, packet: Packet) -> None:
        """Enqueue a packet for transmission."""
        if self._receiver is None:
            raise NetworkError(f"link {self.name!r} has no receiver attached")
        self._queue.append(packet)
        if not self._serializing:
            self._serialize_next()

    def send_train(
        self, packet: Packet, head_ns: int, tail_ns: int, early: bool
    ) -> None:
        """Enqueue a train: ``packet.wire_count`` slices sent back to back.

        Every slice but the last takes ``head_ns`` to serialize and the
        last takes ``tail_ns``.  The peer NIC gets the whole train through
        :meth:`Nic.receive_train` when its first slice arrives if
        ``early``, else when its last slice does.  Only a link straight
        into a NIC takes trains: behind a switch or a mailbox another
        flow's packets could land between the slices.
        """
        if self.peer is None:
            raise NetworkError(
                f"link {self.name!r} does not feed a NIC; it cannot carry "
                f"a train"
            )
        self._trains.append((head_ns, tail_ns, early))
        self._queued_slices += packet.wire_count - 1
        self._queue.append(packet)
        if not self._serializing:
            self._serialize_next()

    def _serialize_next(self) -> None:
        if not self._queue:
            self._serializing = False
            return
        self._serializing = True
        packet = self._queue.popleft()
        slices = packet.wire_count
        if slices > 1:
            head_ns, tail_ns, early = self._trains.popleft()
            self._queued_slices -= slices - 1
            self._train = (self._sim.now, head_ns, slices, early)
            delay = (slices - 1) * head_ns + tail_ns
            if early:
                # Handed over when the first slice lands, which may be
                # before the wire is done with the last.
                self._flight.append(packet)
                self._sim.call_after(
                    head_ns + self.propagation_delay_ns, self._hand_over_next
                )
        else:
            delay = serialization_delay_ns(
                packet.wire_bytes, self.bandwidth_bps
            )
        self.busy_ns += delay
        # Serialization is strictly one-at-a-time, so the in-flight
        # packet lives in an attribute and the completion callback is a
        # bound method — no per-packet closure.
        self._current = packet
        self._sim.call_after(delay, self._finish_serialization)

    def _finish_serialization(self) -> None:
        packet = self._current
        self._current = None
        if packet.wire_count > 1:
            # A train: the link is clean, so every slice got through.
            early = self._train[3]
            self._train = None
            self.packets_sent += packet.wire_count
            self.bytes_sent += packet.wire_bytes
            if not early:
                self._flight.append(packet)
                self._sim.call_after(
                    self.propagation_delay_ns, self._hand_over_next
                )
            self._serialize_next()
            return
        verdict = 0
        if self._fault_hook is not None:
            verdict = self._fault_hook(packet)
        if verdict < 0:
            self.packets_dropped += 1
            self.fault_drops += 1
            recycle_packet(packet)
        elif self._loss_rng is not None and self._loss_rng.bernoulli(
            self.loss_probability
        ):
            self.packets_dropped += 1
            recycle_packet(packet)
        else:
            self.packets_sent += 1
            self.bytes_sent += packet.wire_bytes
            if verdict:
                self._sim.call_after(
                    self.propagation_delay_ns + verdict,
                    lambda: self._receiver(packet),
                )
            else:
                self._flight.append(packet)
                self._sim.call_after(
                    self.propagation_delay_ns, self._deliver_next
                )
        self._serialize_next()

    def _deliver_next(self) -> None:
        self._receiver(self._flight.popleft())

    def _hand_over_next(self) -> None:
        self.peer.receive_train(self._flight.popleft())

