"""Peer metadata exchange (paper §3.2 wire format, §5 exchange policy).

Each endpoint occasionally shares its three queue states with its peer.
Per the paper, a shared state is three 3-tuples — (integral, total, time)
for the unacked, unread and ackdelay queues — at **4 bytes per counter**,
i.e. 36 bytes per exchange.  32-bit counters wrap, so this module
implements the scaled, wrap-safe wire representation:

- time is carried in microseconds modulo 2³² (wraps every ~71 minutes);
- totals are carried in queue units modulo 2³²;
- integrals are carried in (unit·µs) >> ``integral_shift`` modulo 2³².

Deltas between successive exchanges unwrap correctly as long as less
than 2³² of progress happens between them — the receiver maintains
monotone unwrapped counters per queue.

Exchange cadence (§5): a fixed period, plus an on-demand flag — Little's
law estimates stay accurate regardless of when snapshots are taken, so
the cadence trades freshness against header bytes, nothing else.
Options ride outgoing segments (the TCP-option header-extension model);
an endpoint that sends nothing shares nothing, exactly as on the wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.qstate import QueueSnapshot, QueueState, TripleSnapshot
from repro.errors import EstimationError
from repro.units import msecs

_WIRE_MOD = 1 << 32
_STRUCT = struct.Struct("<III")

OPTION_E2E = "e2e"
OPTION_HINT = "e2e_hint"


@dataclass(frozen=True)
class WireScale:
    """Scaling between native (ns, unit, unit·ns) and wire counters."""

    time_unit_ns: int = 1_000
    integral_shift: int = 10

    def pack_snapshot(self, snap: QueueSnapshot) -> tuple[int, int, int]:
        """Native snapshot -> (time32, total32, integral32)."""
        time32 = (snap.time // self.time_unit_ns) % _WIRE_MOD
        total32 = snap.total % _WIRE_MOD
        integral32 = (
            (snap.integral // self.time_unit_ns) >> self.integral_shift
        ) % _WIRE_MOD
        return time32, total32, integral32


class WireQueueState:
    """One queue's 12-byte wire representation."""

    WIRE_BYTES = 12

    __slots__ = ("time32", "total32", "integral32")

    def __init__(self, time32: int, total32: int, integral32: int):
        self.time32 = time32
        self.total32 = total32
        self.integral32 = integral32

    @classmethod
    def capture(cls, state: QueueState, scale: WireScale) -> "WireQueueState":
        """Snapshot a live queue state into wire counters.

        Equivalent to ``cls(*scale.pack_snapshot(state.snapshot()))``
        but uses the tuple snapshot — this runs for every queue on every
        outgoing exchange, and the dataclass allocation is pure overhead.
        """
        time_ns, total, integral = state.snapshot_tuple()
        unit = scale.time_unit_ns
        return cls(
            (time_ns // unit) % _WIRE_MOD,
            total % _WIRE_MOD,
            ((integral // unit) >> scale.integral_shift) % _WIRE_MOD,
        )

    def encode(self) -> bytes:
        """Serialize to the 12-byte on-the-wire layout."""
        return _STRUCT.pack(self.time32, self.total32, self.integral32)

    @classmethod
    def decode(cls, data: bytes) -> "WireQueueState":
        """Parse the 12-byte layout."""
        if len(data) != cls.WIRE_BYTES:
            raise EstimationError(
                f"wire queue state must be {cls.WIRE_BYTES} bytes, got {len(data)}"
            )
        return cls(*_STRUCT.unpack(data))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WireQueueState)
            and self.time32 == other.time32
            and self.total32 == other.total32
            and self.integral32 == other.integral32
        )


class WirePeerState:
    """The full 36-byte exchange payload: three queue states."""

    WIRE_BYTES = 3 * WireQueueState.WIRE_BYTES

    __slots__ = ("unacked", "unread", "ackdelay")

    def __init__(
        self,
        unacked: WireQueueState,
        unread: WireQueueState,
        ackdelay: WireQueueState,
    ):
        self.unacked = unacked
        self.unread = unread
        self.ackdelay = ackdelay

    @classmethod
    def capture(cls, socket, scale: WireScale) -> "WirePeerState":
        """Snapshot a socket's three byte-queue states."""
        return cls(
            unacked=WireQueueState.capture(socket.qs_unacked, scale),
            unread=WireQueueState.capture(socket.qs_unread, scale),
            ackdelay=WireQueueState.capture(socket.qs_ackdelay, scale),
        )

    def encode(self) -> bytes:
        """Serialize to the 36-byte exchange payload."""
        return self.unacked.encode() + self.unread.encode() + self.ackdelay.encode()

    @classmethod
    def decode(cls, data: bytes) -> "WirePeerState":
        """Parse the 36-byte exchange payload."""
        if len(data) != cls.WIRE_BYTES:
            raise EstimationError(
                f"peer state must be {cls.WIRE_BYTES} bytes, got {len(data)}"
            )
        size = WireQueueState.WIRE_BYTES
        return cls(
            unacked=WireQueueState.decode(data[:size]),
            unread=WireQueueState.decode(data[size : 2 * size]),
            ackdelay=WireQueueState.decode(data[2 * size :]),
        )


class _CounterUnwrapper:
    """Reconstructs a monotone counter from wrapped 32-bit observations."""

    __slots__ = ("_last32", "value")

    def __init__(self):
        self._last32: int | None = None
        self.value = 0

    def preview(self, observed32: int) -> int:
        """The unwrapped value ``observed32`` would commit to."""
        if self._last32 is None:
            return observed32
        return self.value + (observed32 - self._last32) % _WIRE_MOD

    def update(self, observed32: int) -> int:
        self.value = self.preview(observed32)
        self._last32 = observed32
        return self.value


class _QueueUnwrapper:
    """Unwraps one queue's wire counters back to native units."""

    def __init__(self, scale: WireScale):
        self._scale = scale
        self._time = _CounterUnwrapper()
        self._total = _CounterUnwrapper()
        self._integral = _CounterUnwrapper()

    def _snapshot(self, time_c: int, total_c: int, integral_c: int) -> QueueSnapshot:
        return QueueSnapshot(
            time=time_c * self._scale.time_unit_ns,
            total=total_c,
            integral=(integral_c << self._scale.integral_shift)
            * self._scale.time_unit_ns,
        )

    def preview(self, wire: WireQueueState) -> QueueSnapshot:
        """What :meth:`update` would yield, without committing state."""
        return self._snapshot(
            self._time.preview(wire.time32),
            self._total.preview(wire.total32),
            self._integral.preview(wire.integral32),
        )

    def update(self, wire: WireQueueState) -> QueueSnapshot:
        return self._snapshot(
            self._time.update(wire.time32),
            self._total.update(wire.total32),
            self._integral.update(wire.integral32),
        )


class MetadataExchange:
    """Attaches to a socket; shares queue states, collects the peer's.

    The paper keeps two states per connection, previous and current
    (§5); :attr:`remote_prev` / :attr:`remote_cur` are exactly those,
    each the peer's unwrapped :class:`~repro.core.qstate.TripleSnapshot`.
    When a :class:`~repro.core.hints.HintSession` is supplied, its
    userspace queue state rides along as the hint option (§3.3's
    ancillary-data path).

    Robustness: incoming states are sanity-checked before they replace
    the prev/cur pair.  A state whose unwrapped counters jump implausibly
    (a corrupted or replayed exchange — with modular unwrapping, any
    regression surfaces as a huge forward jump) is rejected and counted
    in :attr:`states_rejected` without touching the unwrap state, so one
    bad exchange costs exactly one sample.  ``max_gap_ns`` bounds the
    believable time progress between consecutive states (None disables
    the gap check — the default, since a clean testbed never needs it).
    After :attr:`REBASELINE_AFTER` consecutive rejections the incoming
    state is adopted as a fresh baseline: at that point the persistent
    implausibility means *our* retained baseline is the corrupt side.

    ``tracer`` (a :class:`repro.obs.Tracer`) records every state sent
    (``exchange.send``: option bytes, demand flag, hint ride-along) and
    every state received with its plausibility verdict
    (``exchange.recv``: accepted / rejected / rebaselined).
    """

    REBASELINE_AFTER = 3

    def __init__(
        self,
        sim,
        socket,
        period_ns: int = msecs(10),
        scale: WireScale | None = None,
        hint_session=None,
        max_gap_ns: int | None = None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        if period_ns <= 0:
            raise EstimationError(f"exchange period must be positive: {period_ns}")
        if max_gap_ns is not None and max_gap_ns <= 0:
            raise EstimationError(f"max gap must be positive: {max_gap_ns}")
        self._sim = sim
        self._socket = socket
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_src = getattr(socket, "name", "socket")
        self.period_ns = period_ns
        self.scale = scale or WireScale()
        self.hint_session = hint_session
        self.max_gap_ns = max_gap_ns
        socket.exchange = self
        self._next_due = sim.now
        self._demand = False
        self._unwrap_unacked = _QueueUnwrapper(self.scale)
        self._unwrap_unread = _QueueUnwrapper(self.scale)
        self._unwrap_ackdelay = _QueueUnwrapper(self.scale)
        # The hint option's scale (integrals in whole unit·µs) is fixed
        # for the exchange's lifetime; build it once instead of per
        # transmitted hint.
        self._hint_scale = WireScale(
            time_unit_ns=self.scale.time_unit_ns, integral_shift=0
        )
        self._unwrap_hint = _QueueUnwrapper(self._hint_scale)
        self.remote_prev: TripleSnapshot | None = None
        self.remote_cur: TripleSnapshot | None = None
        self.remote_hint_prev: QueueSnapshot | None = None
        self.remote_hint_cur: QueueSnapshot | None = None
        self.fault_hook = None  # attached by repro.faults
        self.last_received_ns: int | None = None
        self.states_sent = 0
        self.states_received = 0
        self.states_rejected = 0
        self.rebaselines = 0
        self._consecutive_rejections = 0
        self.option_bytes_sent = 0
        self.carrier_acks_sent = 0
        self._carrier_timer = None
        self._carrier_deadline_ns = None

    def request(self) -> None:
        """On-demand exchange (§5): attach state to the next segment."""
        self._demand = True

    # ------------------------------------------------------------------
    # Standalone carrier for quiet endpoints.
    # ------------------------------------------------------------------

    def start_carrier(self, deadline_ns: int) -> None:
        """Guarantee delivery even without reverse traffic.

        Options ride outgoing segments, so an endpoint that transmits
        nothing shares nothing — a one-way bulk receiver, or an idle
        connection that a controller still wants estimates from.  The
        carrier checks every ``deadline_ns``: if a state is due (by
        period or on-demand) and no segment has carried it, it emits a
        pure ack as a carrier.
        """
        if deadline_ns <= 0:
            raise EstimationError(f"carrier deadline must be positive: {deadline_ns}")
        self._carrier_deadline_ns = deadline_ns
        if self._carrier_timer is None:
            self._carrier_timer = self._sim.call_after(
                deadline_ns, self._carrier_tick
            )

    def stop_carrier(self) -> None:
        """Cancel the carrier."""
        if self._carrier_timer is not None:
            self._sim.cancel(self._carrier_timer)
            self._carrier_timer = None
        self._carrier_deadline_ns = None

    def _carrier_tick(self) -> None:
        self._carrier_timer = None
        if self._carrier_deadline_ns is None:
            return
        starved = (
            self._sim.now >= self._next_due + self._carrier_deadline_ns
        )
        if self._demand or starved:
            # Starved: the state has been due for a full deadline and no
            # segment carried it; send a bare ack (its transmit path
            # calls back into on_transmit, attaching the state).  Merely
            # "due" states get the grace window — regular traffic will
            # carry them.
            self.carrier_acks_sent += 1
            self._socket._emit_pure_ack()
        self._carrier_timer = self._sim.call_after(
            self._carrier_deadline_ns, self._carrier_tick
        )

    # ------------------------------------------------------------------
    # Socket hooks.
    # ------------------------------------------------------------------

    def on_transmit(self, segment) -> None:
        """Called for every outgoing segment; attaches options when due."""
        if self._sim.now < self._next_due and not self._demand:
            return
        on_demand = self._demand
        self._next_due = self._sim.now + self.period_ns
        self._demand = False
        state = WirePeerState.capture(self._socket, self.scale)
        segment.options[OPTION_E2E] = state
        self.states_sent += 1
        option_bytes = WirePeerState.WIRE_BYTES
        if self.hint_session is not None:
            segment.options[OPTION_HINT] = WireQueueState.capture(
                self.hint_session.state, self._hint_scale
            )
            option_bytes += WireQueueState.WIRE_BYTES
        self.option_bytes_sent += option_bytes
        if self._tracer.enabled:
            self._tracer.exchange_send(
                self._trace_src,
                option_bytes,
                demand=on_demand,
                hint=self.hint_session is not None,
            )

    def on_receive(self, options: dict) -> None:
        """Called for incoming segments carrying options."""
        if self.fault_hook is not None:
            options = self.fault_hook(options)
            if not options:
                return
        state = options.get(OPTION_E2E)
        if state is not None:
            self.states_received += 1
            self._receive_state(state)
        hint = options.get(OPTION_HINT)
        if hint is not None:
            snapshot = self._unwrap_hint.update(hint)
            self.remote_hint_prev, self.remote_hint_cur = (
                self.remote_hint_cur,
                snapshot,
            )

    def _receive_state(self, state: WirePeerState) -> None:
        candidate = TripleSnapshot(
            unacked=self._unwrap_unacked.preview(state.unacked),
            unread=self._unwrap_unread.preview(state.unread),
            ackdelay=self._unwrap_ackdelay.preview(state.ackdelay),
        )
        rebaseline = False
        if self._implausible(candidate):
            self.states_rejected += 1
            self._consecutive_rejections += 1
            if self._consecutive_rejections < self.REBASELINE_AFTER:
                if self._tracer.enabled:
                    self._tracer.exchange_recv(
                        self._trace_src, "rejected", candidate
                    )
                return  # one bad exchange costs exactly one sample
            rebaseline = True
            self.rebaselines += 1
        self._consecutive_rejections = 0
        if self._tracer.enabled:
            self._tracer.exchange_recv(
                self._trace_src,
                "rebaselined" if rebaseline else "accepted",
                candidate,
            )
        snapshots = TripleSnapshot(
            unacked=self._unwrap_unacked.update(state.unacked),
            unread=self._unwrap_unread.update(state.unread),
            ackdelay=self._unwrap_ackdelay.update(state.ackdelay),
        )
        # A rebaseline must not leave an interval spanning the bad jump.
        self.remote_prev = None if rebaseline else self.remote_cur
        self.remote_cur = snapshots
        self.last_received_ns = self._sim.now

    #: Counter movement (wire units) believable within one wire time
    #: tick.  Wire time has microsecond resolution, so two states in the
    #: same microsecond legitimately move a little; a corrupted counter
    #: (a random 32-bit flip) jumps by ~2³¹ and sails past this.
    ZERO_DT_JUMP = 1 << 24

    def _implausible(self, candidate: TripleSnapshot) -> bool:
        """Whether a candidate state cannot follow the current one."""
        cur = self.remote_cur
        if cur is None:
            return False
        max_integral_jump = (
            self.ZERO_DT_JUMP << self.scale.integral_shift
        ) * self.scale.time_unit_ns
        for queue in ("unacked", "unread", "ackdelay"):
            new = getattr(candidate, queue)
            old = getattr(cur, queue)
            dt = new.time - old.time  # >= 0 by modular unwrapping
            if dt == 0 and (
                new.total - old.total > self.ZERO_DT_JUMP
                or new.integral - old.integral > max_integral_jump
            ):
                return True  # huge movement with zero time progress
            if self.max_gap_ns is not None and dt > self.max_gap_ns:
                return True
        return False

    def staleness_ns(self) -> int | None:
        """Age of the freshest accepted peer state; None before any."""
        if self.last_received_ns is None:
            return None
        return self._sim.now - self.last_received_ns
