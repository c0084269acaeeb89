"""The simulated TCP socket.

One :class:`TcpSocket` is one endpoint of an established connection: a
sender (send buffer, cwnd, Nagle/auto-corking, retransmission) and a
receiver (reassembly, delayed acks, receive window) sharing a segment
demux.  Connections are created pre-established by
:func:`repro.tcp.connect.connect_pair` — the experiments never need the
handshake, and modelling it would add nothing to the batching story.

The three paper queues are instrumented exactly where the paper's kernel
prototype hooks them (§3.4, footnote 1):

- **unacked** (sk_wmem_queued): bytes enter on ``send()`` and leave when
  cumulatively acknowledged;
- **unread** (sk_rmem_alloc): bytes enter on in-order arrival and leave
  on application ``read()``;
- **ackdelay** (rcv_nxt − rcv_wup): bytes enter on in-order arrival and
  leave when an ack (pure or piggybacked) is sent.

Each queue is a :class:`repro.core.qstate.QueueState` updated via TRACK.
Additional message-unit instrumentation (packets, syscalls, hints — §3.3)
attaches through the :attr:`TcpSocket.instruments` hook list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.qstate import QueueState
from repro.errors import TcpError
from repro.net.packet import acquire_packet
from repro.sim.events import Event
from repro.tcp.buffers import ByteStream, ReassemblyQueue
from repro.tcp.cc import RenoCongestionControl
from repro.tcp.delack import DelayedAckManager
from repro.tcp.nagle import BatchingHeuristics
from repro.tcp.rtt import RttEstimator
from repro.tcp.segment import Segment
from repro.units import KIB, MIB, msecs

_conn_ids = itertools.count(1)


def next_conn_id() -> int:
    """Allocate a fresh connection identifier."""
    return next(_conn_ids)


@dataclass(frozen=True)
class TcpConfig:
    """Per-socket protocol parameters.

    ``nagle`` is the batching switch under study (inverse of
    TCP_NODELAY).  ``autocork`` defaults off so experiments isolate
    Nagle; the auto-corking ablation turns it on.  ``min_batch_bytes``
    is the §5 AIMD-adjustable batching floor (0 = disabled).
    """

    mss: int = 1448
    recv_buffer_bytes: int = 4 * MIB
    nagle: bool = True
    nagle_mode: str = "classic"
    autocork: bool = False
    min_batch_bytes: int = 0
    delack_delay_ns: int = msecs(40)
    delack_adaptive: bool = False
    initial_cwnd_segments: int = 10
    min_rto_ns: int = msecs(200)
    tso_max_bytes: int = 64 * KIB
    # RFC 2018 selective acknowledgments: the receiver advertises its
    # out-of-order holdings; the sender retransmits holes instead of
    # waiting out RTOs.  Off by default (the paper's testbed is
    # lossless); the lossy-path tests exercise it.
    sack: bool = False
    # tcp_slow_start_after_idle: collapse cwnd back to the initial
    # window after an idle period longer than the RTO.  Off by default
    # (the Figure 4 calibration assumes steady streams); the knob exists
    # because idle restarts interact with batching at low rates.
    slow_start_after_idle: bool = False


class TcpSocket:
    """One endpoint of an established TCP connection."""

    def __init__(self, sim, host, config: TcpConfig, conn_id: int, name: str):
        self._sim = sim
        self.host = host
        self.config = config
        self.conn_id = conn_id
        self.name = name
        self.peer: "TcpSocket | None" = None
        # Rebound once at construction: the config is frozen, and the
        # transmit path reads these per segment.
        self._sack = config.sack
        self._readable_name = f"{name}.readable"

        self.heuristics = BatchingHeuristics(
            nagle=config.nagle,
            nagle_mode=config.nagle_mode,
            autocork=config.autocork,
            min_batch_bytes=config.min_batch_bytes,
        )
        self._small_packet_end = 0  # end seq of the last sub-MSS send

        # --- sender state -------------------------------------------------
        self.out_stream = ByteStream()
        self.snd_una = 0
        self.snd_nxt = 0
        self.cc = RenoCongestionControl(config.mss, config.initial_cwnd_segments)
        self.rtt = RttEstimator(min_rto_ns=config.min_rto_ns)
        self.peer_rwnd = config.recv_buffer_bytes
        self._rtt_probe: tuple[int, int] | None = None  # (end_seq, sent_at)
        self._rtx_timer = None
        self._persist_timer = None
        self._persist_backoff = 1
        self.window_probes_sent = 0
        self._dupacks = 0
        self._last_send_ns = sim.now
        self.idle_restarts = 0
        # SACK scoreboard: peer-acknowledged ranges beyond snd_una.
        self._sacked: list[tuple[int, int]] = []
        self._recovery_rtx_upto = 0
        self.sack_retransmits = 0

        # --- receiver state ------------------------------------------------
        self.rcv_nxt = 0
        self.rcv_wup = 0
        self.read_seq = 0
        self.in_stream: ByteStream | None = None
        self.reassembly = ReassemblyQueue()
        self.delack = DelayedAckManager(
            sim, config.mss, self._delack_fire, config.delack_delay_ns,
            adaptive=config.delack_adaptive,
        )
        self._readers: list = []  # Events and any-readable waiters

        # --- paper instrumentation (byte units, §3.4) -----------------------
        self.qs_unacked = QueueState(host.clock)
        self.qs_unread = QueueState(host.clock)
        self.qs_ackdelay = QueueState(host.clock)
        self.instruments: list[Any] = []
        self.exchange = None  # attached by repro.core.exchange

        self._corked = False
        self._read_stalled = False
        self.read_stalls = 0

        # --- statistics ------------------------------------------------------
        self.segments_sent = 0
        self.pure_acks_sent = 0
        self.retransmits = 0
        self.bytes_sent = 0

    # ======================================================================
    # Application API.
    # ======================================================================

    def send(self, message: Any, nbytes: int) -> None:
        """Queue a message of ``nbytes`` on the stream and push.

        The CPU cost of the send syscall is the *application's* to charge
        (it knows its own context); this method does protocol work only.
        """
        if self.peer is None:
            raise TcpError(f"socket {self.name!r} is not connected")
        self.out_stream.append(nbytes, message)
        self.qs_unacked.track(nbytes)
        if self.instruments:
            for instrument in self.instruments:
                instrument.on_send(nbytes)
        self._push()

    @property
    def readable_bytes(self) -> int:
        """In-order received bytes not yet read by the application.

        Zero while a read stall is injected — the stalled application
        cannot make progress — though the backlog still shrinks the
        advertised window (see :meth:`_advertised_window`).
        """
        if self._read_stalled:
            return 0
        return self.rcv_nxt - self.read_seq

    def read(self, max_bytes: int | None = None) -> tuple[int, list[Any]]:
        """Consume up to ``max_bytes`` in-order bytes.

        Returns ``(nbytes, messages)`` where ``messages`` are the
        application-level units whose final byte was consumed by this
        read — exactly what a streaming parser would hand back.
        """
        nbytes = self.readable_bytes
        if max_bytes is not None:
            nbytes = min(nbytes, max_bytes)
        if nbytes == 0:
            return 0, []
        window_before = self._advertised_window()
        self.read_seq += nbytes
        self.qs_unread.track(-nbytes)
        if self.instruments:
            for instrument in self.instruments:
                instrument.on_read(self.read_seq)
        messages = self.in_stream.pop_completed(self.read_seq)
        # Receive-window update: if the window was nearly closed and the
        # read opened it by 2+ MSS, tell the peer so it can resume.
        window_after = self._advertised_window()
        if (
            window_before < 2 * self.config.mss
            and window_after >= 2 * self.config.mss
        ):
            self._emit_pure_ack()
        return nbytes, messages

    def wait_readable(self) -> Event:
        """Waitable that fires when in-order data is available."""
        event = Event(self._sim, name=self._readable_name)
        if self.readable_bytes > 0:
            event.trigger()
        else:
            self._readers.append(event)
        return event

    def cork(self) -> None:
        """TCP_CORK analogue: hold all transmission until :meth:`uncork`.

        Applications use this to flush several queued replies as one
        unit (the writev model of an event-loop server's output buffer).
        """
        self._corked = True

    def uncork(self) -> None:
        """Release a cork and push whatever accumulated."""
        self._corked = False
        self._push()

    def set_nagle(self, enabled: bool) -> None:
        """Toggle Nagle batching at runtime (the paper's dynamic knob)."""
        self.heuristics.nagle = enabled
        if not enabled:
            self._push()  # release anything currently held

    def set_read_stall(self, stalled: bool) -> None:
        """Fault hook: freeze/unfreeze the application read path.

        While stalled, :meth:`read` consumes nothing and
        :meth:`wait_readable` events stay pending, so unread bytes
        accumulate and the receive window closes — a slow receiver as
        the peer observes it.  Unstalling wakes any waiting readers.
        """
        if self._read_stalled == stalled:
            return
        self._read_stalled = stalled
        if stalled:
            self.read_stalls += 1
        elif self.readable_bytes > 0 and self._readers:
            readers, self._readers = self._readers, []
            for event in readers:
                event.trigger()

    # ======================================================================
    # Transmit path.
    # ======================================================================

    def _push(self) -> None:
        """tcp_write_xmit: send whatever the windows and batching allow."""
        if self._corked:
            return
        config = self.config
        if (
            config.slow_start_after_idle
            and self.snd_nxt == self.snd_una
            and self._sim.now - self._last_send_ns > self.rtt.rto_ns
            and self.cc.cwnd > config.initial_cwnd_segments * config.mss
            and self.out_stream.write_seq > self.snd_nxt
        ):
            # tcp_slow_start_after_idle: the old cwnd no longer reflects
            # the path after an idle RTO; restart from the initial window.
            self.cc.cwnd = config.initial_cwnd_segments * config.mss
            self.idle_restarts += 1
        while True:
            available = self.out_stream.write_seq - self.snd_nxt
            if available <= 0:
                self._cancel_persist_timer()
                return
            window_end = self.snd_una + min(self.cc.cwnd, self.peer_rwnd)
            window_avail = window_end - self.snd_nxt
            if window_avail <= 0:
                self._maybe_arm_persist(needed=1)
                return
            if available >= config.mss:
                if window_avail < config.mss:
                    # Sender-side SWS avoidance: wait for the window to
                    # open — but guard the wait with the persist timer,
                    # or a lost window update deadlocks the flow.
                    self._maybe_arm_persist(needed=config.mss)
                    return
                chunk = min(available, window_avail, config.tso_max_bytes)
                chunk -= chunk % config.mss  # keep the sub-MSS tail back
            else:
                if window_avail < available:
                    self._maybe_arm_persist(needed=available)
                    return
                if not self.heuristics.may_send_partial(
                    queued_bytes=available,
                    unacked_bytes=self.snd_nxt - self.snd_una,
                    tx_ring_occupancy=self.host.nic.tx_ring_occupancy,
                    small_packet_outstanding=(
                        self._small_packet_end > self.snd_una
                    ),
                ):
                    tracer = self.host.tracer
                    if tracer.enabled:
                        tracer.tcp_event(self.name, "batching_hold", available)
                    return  # held by Nagle / auto-corking / batch floor
                chunk = available
                self._small_packet_end = self.snd_nxt + chunk
            self._transmit(self.snd_nxt, chunk)
            self.snd_nxt += chunk

    def _transmit(self, seq: int, nbytes: int, retransmit: bool = False) -> None:
        host = self.host
        dst = self.peer.host.name
        segment = Segment(
            conn_id=self.conn_id,
            src=host.name,
            dst=dst,
            seq=seq,
            payload_len=nbytes,
            ack=self.rcv_nxt,
            wnd=self._advertised_window(),
            is_retransmit=retransmit,
            # PSH when this transmission empties the send queue — as in
            # tcp_push: the receiver should deliver without waiting for
            # more.  A Nagle-held residue keeps the queue non-empty, so
            # a batching sender naturally emits unpushed streams.
            psh=(seq + nbytes == self.out_stream.write_seq),
            sack_blocks=(
                self.reassembly.blocks() if self._sack else ()
            ),
        )
        self._note_ack_carried()
        if self.exchange is not None:
            self.exchange.on_transmit(segment)
        if retransmit:
            self.retransmits += 1
            if self._rtt_probe is not None and self._rtt_probe[0] > self.snd_una:
                self._rtt_probe = None  # Karn: never sample retransmitted data
        else:
            self.segments_sent += 1
            self.bytes_sent += nbytes
            if self._rtt_probe is None:
                self._rtt_probe = (seq + nbytes, self._sim.now)
            if self.instruments:
                for instrument in self.instruments:
                    instrument.on_segment_sent(seq, nbytes)
        self._last_send_ns = self._sim.now
        tracer = host.tracer
        if tracer.enabled:
            tracer.tcp_event(
                self.name, "tx",
                {"seq": seq, "len": nbytes, "psh": segment.psh,
                 "retransmit": retransmit},
            )
        host.nic.post(
            acquire_packet(
                host.name,
                dst,
                nbytes,
                payload=segment,
                options_bytes=segment.options_bytes(),
            )
        )
        if self._rtx_timer is None:
            self._arm_rtx_timer()

    def _emit_pure_ack(self, window_probe: bool = False) -> None:
        """Send an ack-only segment, charging the net core's tx cost."""
        segment = Segment(
            conn_id=self.conn_id,
            src=self.host.name,
            dst=self.peer.host.name,
            seq=self.snd_nxt,
            payload_len=0,
            ack=self.rcv_nxt,
            wnd=self._advertised_window(),
            window_probe=window_probe,
            sack_blocks=(
                self.reassembly.blocks() if self._sack else ()
            ),
        )
        self._note_ack_carried()
        if self.exchange is not None:
            self.exchange.on_transmit(segment)
        self.pure_acks_sent += 1
        packet = acquire_packet(
            self.host.name,
            self.peer.host.name,
            0,
            payload=segment,
            options_bytes=segment.options_bytes(),
        )
        self.host.net_core.execute(
            self.host.costs.tx_packet_ns, self.host.nic.post, packet
        )

    def _delack_fire(self) -> None:
        self._emit_pure_ack()

    def _note_ack_carried(self) -> None:
        """An outgoing segment carries ack=rcv_nxt: drain the ackdelay
        queue and stand the delack machinery down."""
        pending = self.rcv_nxt - self.rcv_wup
        if pending > 0:
            self.qs_ackdelay.track(-pending)
            if self.instruments:
                for instrument in self.instruments:
                    instrument.on_ack_sent(self.rcv_nxt)
        self.rcv_wup = self.rcv_nxt
        self.delack.on_ack_piggybacked()

    # ======================================================================
    # Receive path (runs in softirq context; cost already charged).
    # ======================================================================

    def segment_arrived(self, segment: Segment) -> None:
        """Demux entry point for one (possibly GRO-merged) segment."""
        tracer = self.host.tracer
        if tracer.enabled:
            tracer.tcp_event(
                self.name, "rx",
                {"seq": segment.seq, "len": segment.payload_len,
                 "ack": segment.ack, "wire_count": segment.wire_count},
            )
        if self.exchange is not None and segment.options:
            self.exchange.on_receive(segment.options)
        old_rwnd = self.peer_rwnd
        self.peer_rwnd = segment.wnd
        if self._sack and segment.sack_blocks:
            self._record_sacked(segment.sack_blocks)
        if segment.ack > self.snd_una:
            self._process_ack(segment.ack)
        elif (
            segment.is_pure_ack
            and segment.ack == self.snd_una
            and self.snd_nxt > self.snd_una
        ):
            self._process_dupack()
        if segment.window_probe:
            self._emit_pure_ack()  # re-advertise the current window
        if not segment.is_pure_ack:
            self._process_data(segment)
        elif segment.wnd > old_rwnd:
            self._push()  # window update may unblock the sender

    def _process_ack(self, new_ack: int) -> None:
        if new_ack > self.snd_nxt:
            raise TcpError(
                f"{self.name}: ack {new_ack} beyond snd_nxt {self.snd_nxt}"
            )
        acked = new_ack - self.snd_una
        self.snd_una = new_ack
        self._dupacks = 0
        self._recovery_rtx_upto = 0
        if self._sacked:
            self._sacked = [
                (max(s, new_ack), e) for s, e in self._sacked if e > new_ack
            ]
            # Partial ack during SACK recovery: the scoreboard still
            # shows holes, so repair the first immediately rather than
            # waiting for three fresh dupacks per hole.
            hole = self._next_hole(0)
            if hole is not None:
                start, end = hole
                self.sack_retransmits += 1
                self._transmit(start, end - start, retransmit=True)
                self._recovery_rtx_upto = end
        self.qs_unacked.track(-acked)
        if self.instruments:
            for instrument in self.instruments:
                instrument.on_acked(new_ack)
        self.cc.on_ack(acked)
        if self._rtt_probe is not None and new_ack >= self._rtt_probe[0]:
            self.rtt.sample(self._sim.now - self._rtt_probe[1])
            self._rtt_probe = None
        self._cancel_rtx_timer()
        if self.snd_nxt > self.snd_una:
            self._arm_rtx_timer()
        self._push()  # window opened; may also release a Nagle-held tail

    def _process_dupack(self) -> None:
        self._dupacks += 1
        if self._dupacks < 3:
            return
        if not self.config.sack:
            if self._dupacks == 3:
                self.cc.on_loss()
                chunk = min(self.config.mss, self.snd_nxt - self.snd_una)
                self._transmit(self.snd_una, chunk, retransmit=True)
            return
        # SACK recovery: each further dupack repairs the next hole the
        # scoreboard exposes, instead of waiting out an RTO per hole.
        if self._dupacks == 3:
            self.cc.on_loss()
        hole = self._next_hole(self._recovery_rtx_upto)
        if hole is None:
            if self._dupacks == 3 and self.snd_nxt > self.snd_una:
                # Dupacks without scoreboard evidence (e.g. the blocks
                # were lost too): fall back to the classic retransmit.
                chunk = min(self.config.mss, self.snd_nxt - self.snd_una)
                self._transmit(self.snd_una, chunk, retransmit=True)
            return
        start, end = hole
        self.sack_retransmits += 1
        self._transmit(start, end - start, retransmit=True)
        self._recovery_rtx_upto = end

    # ------------------------------------------------------------------
    # SACK scoreboard.
    # ------------------------------------------------------------------

    def _record_sacked(self, blocks) -> None:
        for start, end in blocks:
            start = max(start, self.snd_una)
            if end > start:
                self._sacked.append((start, end))
        if not self._sacked:
            return
        self._sacked.sort()
        merged: list[tuple[int, int]] = []
        for start, end in self._sacked:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sacked = merged

    def _next_hole(self, from_seq: int) -> tuple[int, int] | None:
        """The next un-sacked, un-repaired chunk (≤ 1 MSS) to resend.

        Only data *below the highest SACKed byte* counts as a hole:
        everything above it may simply still be in flight, and
        retransmitting it speculatively wastes the recovery window.
        """
        if not self._sacked:
            return None
        cursor = max(self.snd_una, from_seq)
        for start, end in self._sacked:
            if cursor < start:
                return cursor, min(start, cursor + self.config.mss)
            cursor = max(cursor, end)
        # Past the highest SACKed byte: nothing provably lost remains.
        return None

    def _process_data(self, segment: Segment) -> None:
        if segment.end_seq <= self.rcv_nxt:
            self._emit_pure_ack()  # stale retransmit: re-ack
            return
        if segment.seq > self.rcv_nxt:
            self.reassembly.add(segment.seq, segment.end_seq)
            self.delack.on_out_of_order()  # dupack, triggers fast rtx
            return
        new_nxt = self.reassembly.advance(max(segment.end_seq, self.rcv_nxt))
        advanced = new_nxt - self.rcv_nxt
        self.rcv_nxt = new_nxt
        self.qs_unread.track(advanced)
        self.qs_ackdelay.track(advanced)
        if self.instruments:
            for instrument in self.instruments:
                instrument.on_arrived(self.rcv_nxt)
        self.delack.on_data_received(advanced)
        if self._readers and not self._read_stalled:
            readers, self._readers = self._readers, []
            for event in readers:
                event.trigger()

    # ======================================================================
    # Zero-window persist timer.
    # ======================================================================

    def _rwnd_blocked(self) -> bool:
        """Whether pending data is blocked on the peer's receive window
        (as opposed to cwnd or batching heuristics)."""
        available = self.out_stream.write_seq - self.snd_nxt
        if available <= 0:
            return False
        rwnd_remaining = self.snd_una + self.peer_rwnd - self.snd_nxt
        needed = min(available, self.config.mss)
        return rwnd_remaining < needed

    def _maybe_arm_persist(self, needed: int) -> None:
        """Arm the persist timer when the *receive* window (not cwnd)
        is what blocks transmission of ``needed`` bytes."""
        rwnd_remaining = self.snd_una + self.peer_rwnd - self.snd_nxt
        if rwnd_remaining < needed and self._persist_timer is None:
            self._arm_persist_timer()

    def _arm_persist_timer(self) -> None:
        delay = self.rtt.rto_ns * self._persist_backoff
        self._persist_timer = self._sim.call_after(delay, self._persist_expired)

    def _cancel_persist_timer(self) -> None:
        if self._persist_timer is not None:
            self._sim.cancel(self._persist_timer)
            self._persist_timer = None
        self._persist_backoff = 1

    def _persist_expired(self) -> None:
        self._persist_timer = None
        if not self._rwnd_blocked():
            self._persist_backoff = 1
            self._push()
            return
        # Probe: an ack-only segment that elicits the peer's current
        # window, recovering from a lost window update.
        tracer = self.host.tracer
        if tracer.enabled:
            tracer.tcp_event(self.name, "window_probe", self._persist_backoff)
        self.window_probes_sent += 1
        self._emit_pure_ack(window_probe=True)
        self._persist_backoff = min(self._persist_backoff * 2, 64)
        self._arm_persist_timer()

    # ======================================================================
    # Retransmission timer.
    # ======================================================================

    def _arm_rtx_timer(self) -> None:
        self._rtx_timer = self._sim.call_after(self.rtt.rto_ns, self._rtx_expired)

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._sim.cancel(self._rtx_timer)
            self._rtx_timer = None

    def _rtx_expired(self) -> None:
        self._rtx_timer = None
        if self.snd_nxt <= self.snd_una:
            return
        self.cc.on_timeout()
        self.rtt.backoff()
        chunk = min(self.config.mss, self.snd_nxt - self.snd_una)
        self._transmit(self.snd_una, chunk, retransmit=True)
        self._arm_rtx_timer()

    # ======================================================================
    # Helpers.
    # ======================================================================

    def _advertised_window(self) -> int:
        # The raw unread backlog, not `readable_bytes`: a stalled reader
        # must still shrink the advertised window, or the peer would
        # keep pouring bytes into a receiver that consumes nothing.
        return max(
            0, self.config.recv_buffer_bytes - (self.rcv_nxt - self.read_seq)
        )

    @property
    def unacked_bytes(self) -> int:
        """Bytes written by the application and not yet acknowledged
        (the sk_wmem_queued analogue)."""
        return self.out_stream.write_seq - self.snd_una

    def __repr__(self) -> str:
        return (
            f"<TcpSocket {self.name} conn={self.conn_id} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt}>"
        )


class _AnyReadable:
    """The one waiter :func:`wait_any_readable` puts on every socket.

    Sockets wake their readers with ``trigger()``.  The first socket to
    wake this one withdraws it from the others and forwards the wake.
    """

    __slots__ = ("_sim", "_sockets", "_ready")

    def __init__(self, sim, sockets, ready: Event):
        self._sim = sim
        self._sockets = sockets
        self._ready = ready

    def trigger(self) -> None:
        for sock in self._sockets:
            readers = sock._readers
            if self in readers:
                readers.remove(self)
        self._sim.call_after(0, self._ready.trigger)


def wait_any_readable(sim, sockets, name: str) -> Event:
    """Waitable firing when any of ``sockets`` turns readable (epoll).

    If none is readable yet, one waiter goes on every socket; the first
    to turn readable (new in-order data, or a lifted read stall) wakes
    it, and it leaves the others, so an idle socket never collects
    waiters that lost.  Either way the wake takes the same two
    zero-delay hops as a wait on one :meth:`TcpSocket.wait_readable`
    event: a forward, then the waiting process's step.
    """
    ready = Event(sim, name=name)
    if any(sock.readable_bytes > 0 for sock in sockets):
        sim.call_after(0, ready.trigger)
    else:
        waiter = _AnyReadable(sim, sockets, ready)
        for sock in sockets:
            sock._readers.append(waiter)
    return ready
