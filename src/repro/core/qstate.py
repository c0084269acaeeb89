"""Queue states and the TRACK procedure (paper §3.1, Algorithm 1).

A queue's performance between two points in time is fully captured by a
4-tuple ``(time, size, total, integral)``:

- ``time`` — when the tuple was last updated (integer ns);
- ``size`` — current queue occupancy, in message units;
- ``total`` — cumulative number of units that *left* the queue;
- ``integral`` — time-weighted occupancy accumulator (unit·ns): every
  update adds ``size * dt`` for the interval since the previous update.

``TRACK`` (here :meth:`QueueState.track`) is called whenever the queue size
changes, with a positive count for arrivals and a negative count for
departures.  Two successive *snapshots* of ``(time, total, integral)`` —
``size`` is not needed, as the paper notes — feed ``GETAVGS``
(:func:`repro.core.littles_law.get_avgs`) which recovers the average
occupancy ``Q``, throughput ``λ``, and queuing delay ``D = Q/λ``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError


@dataclass(frozen=True)
class QueueSnapshot:
    """An immutable ``(time, total, integral)`` 3-tuple.

    This is exactly the information a peer shares in a metadata exchange:
    ``size`` is deliberately absent because ``GETAVGS`` never uses it.
    """

    time: int
    total: int
    integral: int

    def __sub__(self, other: "QueueSnapshot") -> "QueueSnapshot":
        """Component-wise difference (the Δq of Algorithm 2, line 2)."""
        return QueueSnapshot(
            time=self.time - other.time,
            total=self.total - other.total,
            integral=self.integral - other.integral,
        )


@dataclass(frozen=True)
class TripleSnapshot:
    """One endpoint's three queue snapshots, taken together: what a
    counter sample, a metadata exchange and the estimator all record."""

    unacked: QueueSnapshot
    unread: QueueSnapshot
    ackdelay: QueueSnapshot

    @classmethod
    def capture(cls, states) -> "TripleSnapshot":
        """Snapshot an object exposing qs_unacked/qs_unread/qs_ackdelay."""
        return cls(
            unacked=states.qs_unacked.snapshot(),
            unread=states.qs_unread.snapshot(),
            ackdelay=states.qs_ackdelay.snapshot(),
        )


class QueueState:
    """The mutable 4-tuple queue state of Algorithm 1.

    ``track(nitems)`` is the TRACK procedure: it first folds the elapsed
    interval into the integral at the *old* size, then applies the size
    change, and counts departures into ``total``.

    The state needs a clock; rather than binding to a full simulator we
    accept any zero-argument callable returning integer nanoseconds, so
    the same class serves the simulated kernel, the userspace hint API,
    and wall-clock use.
    """

    __slots__ = ("_clock", "time", "size", "total", "integral")

    def __init__(self, clock, start_size: int = 0):
        if start_size < 0:
            raise EstimationError(f"negative initial queue size {start_size}")
        self._clock = clock
        self.time = clock()
        self.size = start_size
        self.total = 0
        self.integral = 0

    def track(self, nitems: int) -> None:
        """Record ``nitems`` added (positive) or removed (negative).

        Mirrors Algorithm 1 lines 3-7.  Removing more items than the queue
        holds indicates an instrumentation bug and raises.

        Fast paths (bit-identical, since both skip adding an exact 0):
        coalesced same-tick updates (``dt == 0``) and empty-queue
        intervals (``size == 0``) skip the integral fold entirely —
        together these cover most TRACK calls in a bursty workload, where
        arrivals and their queue-size echoes land on the same tick.
        """
        now = self._clock()
        dt = now - self.time
        if dt:
            if dt < 0:
                raise EstimationError(
                    f"clock moved backwards: {self.time} -> {now}"
                )
            self.time = now
            if self.size:
                self.integral += self.size * dt
        size = self.size + nitems
        if size < 0:
            raise EstimationError(
                f"queue size went negative ({size}) after track({nitems})"
            )
        self.size = size
        if nitems < 0:
            self.total -= nitems

    def snapshot(self) -> QueueSnapshot:
        """Capture the current ``(time, total, integral)`` 3-tuple.

        The integral is brought forward to *now* (a ``track(0)``), so two
        snapshots bracket exactly the wall interval between the calls.
        """
        self.track(0)
        return QueueSnapshot(time=self.time, total=self.total, integral=self.integral)

    def snapshot_tuple(self) -> tuple[int, int, int]:
        """Allocation-light :meth:`snapshot`: a plain ``(time, total,
        integral)`` tuple instead of a :class:`QueueSnapshot`.

        The estimator/exchange hot loop captures both directions of both
        queues on every exchange tick; this variant skips the dataclass
        construction on that path.  The public API keeps returning
        :class:`QueueSnapshot`.
        """
        self.track(0)
        return (self.time, self.total, self.integral)

    def __repr__(self) -> str:
        return (
            f"QueueState(time={self.time}, size={self.size}, "
            f"total={self.total}, integral={self.integral})"
        )
