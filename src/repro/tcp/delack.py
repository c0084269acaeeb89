"""Delayed acknowledgments (RFC 1122 semantics).

The receiver may delay an ack hoping to piggyback it on reverse-direction
data, but must ack at least every second full-sized segment and must not
delay beyond a timeout.  Delayed acks are half of the infamous
Nagle-interaction (§2 of the paper, Cheshire's write-up): a Nagle-held
partial segment can end up waiting for an ack the receiver is in no hurry
to send.

This module only decides *when* an ack is due; the socket sends it.  The
"queue" of not-yet-acked bytes (``rcv_nxt − rcv_wup``) is one of the
three queues the paper's estimator monitors (L_ackdelay).
"""

from __future__ import annotations

from typing import Callable

from repro.units import msecs


class DelayedAckManager:
    """Decides when received data must be acknowledged.

    With ``adaptive=True`` the delay follows Linux's *ato* behavior: an
    EWMA of the observed inter-arrival gap, clamped to
    [``min_delay_ns``, ``delay_ns``], so interactive flows get prompt
    acks while the 40 ms ceiling still bounds bulk receivers.
    """

    __slots__ = (
        "_sim",
        "_mss",
        "_ack_now",
        "delay_ns",
        "adaptive",
        "min_delay_ns",
        "_timer",
        "_unacked_since_ack",
        "_last_arrival_ns",
        "_ato_ns",
        "timer_fires",
        "quick_acks",
    )

    def __init__(
        self,
        sim,
        mss: int,
        ack_now: Callable[[], None],
        delay_ns: int = msecs(40),
        adaptive: bool = False,
        min_delay_ns: int = msecs(4),
    ):
        self._sim = sim
        self._mss = mss
        self._ack_now = ack_now
        self.delay_ns = delay_ns
        self.adaptive = adaptive
        self.min_delay_ns = min_delay_ns
        self._timer = None
        self._unacked_since_ack = 0
        self._last_arrival_ns: int | None = None
        self._ato_ns: float = float(delay_ns)
        self.timer_fires = 0
        self.quick_acks = 0

    @property
    def timer_armed(self) -> bool:
        """Whether a delayed-ack timer is currently pending."""
        return self._timer is not None

    @property
    def current_delay_ns(self) -> int:
        """The delay the next armed timer would use."""
        if not self.adaptive:
            return self.delay_ns
        return max(self.min_delay_ns, min(self.delay_ns, round(self._ato_ns)))

    def _observe_gap(self) -> None:
        now = self._sim.now
        if self._last_arrival_ns is not None:
            gap = now - self._last_arrival_ns
            # Linux: ato tracks the inter-packet gap, reacting faster
            # downward (shorter gaps) than upward.
            if gap < self._ato_ns:
                self._ato_ns = self._ato_ns / 2 + gap
            else:
                self._ato_ns = 0.75 * self._ato_ns + 0.25 * min(
                    gap, float(self.delay_ns)
                )
        self._last_arrival_ns = now

    def on_data_received(self, nbytes: int) -> None:
        """Account newly received in-order bytes and maybe ack now.

        Acks immediately once two full segments' worth of data is
        pending (RFC 1122's must-ack-every-second-full-segment, as
        byte-counted by Linux); otherwise arms the delack timer.
        """
        if self.adaptive:
            # The gap EWMA only ever feeds current_delay_ns, which
            # ignores it when not adaptive — skip the clock read then.
            self._observe_gap()
        self._unacked_since_ack += nbytes
        if self._unacked_since_ack >= 2 * self._mss:
            self.quick_acks += 1
            self._fire()
        elif self._timer is None:
            self._timer = self._sim.call_after(
                self.current_delay_ns, self._timer_fired
            )

    def on_out_of_order(self) -> None:
        """Out-of-order arrival: ack immediately (dupack for fast
        retransmit)."""
        self._fire()

    def on_ack_piggybacked(self) -> None:
        """An outgoing data segment carried the ack; stand down."""
        self._unacked_since_ack = 0
        self._cancel_timer()

    def _timer_fired(self) -> None:
        self._timer = None
        self.timer_fires += 1
        self._fire()

    def _fire(self) -> None:
        self._cancel_timer()
        self._unacked_since_ack = 0
        self._ack_now()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
