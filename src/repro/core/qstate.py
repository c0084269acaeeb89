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

Sampled queues log their changes (:class:`ChangeLog`).  A periodic
sampler — the counter clock of :mod:`repro.analysis.counters` — reads
every queue at every tick, but a queue's counters change only on a
size-changing TRACK.  Between two such changes the triple ``(total,
size, integral − size·time)`` is constant (a ``track(0)`` fold adds
``size·dt`` to the integral and ``dt`` to the time), and the integral at
any instant ``t`` of that stretch is ``(integral − size·time) +
size·t``.  So while a sampler runs, the first size-changing TRACK after
each tick logs the triple it is about to replace, tagged with the tick
count, and a tick itself touches no queue.  The state at sample ``k``
is the first entry logged after it — or, if the queue has not changed
since, its live state — which :meth:`ChangeLog.at` and
:meth:`ChangeLog.series` turn into the ``(total, integral)`` a fold at
the sample would have left.  Memory grows with changes, not with ticks:
an entry is four int64 words in two arrays, about 33 bytes with their
growth room, where a list of boxed ints took about 93.  A state that
does not fit in 64 bits (``integral − size·time`` falls below −2⁶³ when
a GiB is queued at t ≈ 9 s) turns that log's states into a list of
Python ints once, so no value loses exactness.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
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

    __slots__ = ("_clock", "time", "size", "total", "integral", "_log")

    def __init__(self, clock, start_size: int = 0):
        if start_size < 0:
            raise EstimationError(f"negative initial queue size {start_size}")
        self._clock = clock
        self.time = clock()
        self.size = start_size
        self.total = 0
        self.integral = 0
        self._log = None  # the running sampler's ChangeLog, if any

    def track(self, nitems: int) -> None:
        """Record ``nitems`` added (positive) or removed (negative).

        Mirrors Algorithm 1 lines 3-7.  Removing more items than the queue
        holds indicates an instrumentation bug and raises.

        Fast paths (bit-identical, since both skip adding an exact 0):
        coalesced same-tick updates (``dt == 0``) and empty-queue
        intervals (``size == 0``) skip the integral fold entirely —
        together these cover most TRACK calls in a bursty workload, where
        arrivals and their queue-size echoes land on the same tick.

        While a sampler runs, the first size change after each of its
        ticks logs the state it replaces (see :class:`ChangeLog`).
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
        if nitems:
            log = self._log
            if log is not None:
                ticks = len(log.times)
                if ticks != log.logged:
                    log.changed = now
                    log.append(ticks, [
                        self.total, self.size, self.integral - self.size * now
                    ])
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

    def attach(self, times: array) -> "ChangeLog":
        """Start logging changes for a sampler whose sample instants are
        appended to ``times`` (its length is the sampler's tick count).

        Attaching again to the same sampler returns the same log; a
        queue that another running sampler logs raises.
        """
        log = self._log
        if log is None:
            log = self._log = ChangeLog(self, times)
        elif log.times is not times:
            raise EstimationError(
                f"{self!r} is already sampled by another running clock"
            )
        return log


class _Wide(list):
    """A log's states once one passed 64 bits: Python ints, appended
    to as the array they replace."""

    __slots__ = ()
    fromlist = list.extend


class ChangeLog:
    """A sampled queue's change log (see the module docstring).

    Entry ``k`` is ``ticks[k]`` and ``states[3k:3k + 3]``, that is
    ``(total, size, integral − size·time)``: the state the queue held at
    samples ``ticks[k − 1]`` (or 0) up to ``ticks[k]``, logged by its
    first size-changing TRACK once ``ticks[k]`` samples were taken.
    Both are int64 arrays (``states`` becomes a list of Python ints if a
    state passes 64 bits, see :meth:`append`).  ``logged`` is the tick
    count of the last entry and ``changed`` the time of the size change
    that logged it.  :meth:`at` and :meth:`series` answer ``(total,
    integral)`` at a sample as Python ints; nothing outside this module
    reads the entries.
    """

    __slots__ = ("queue", "times", "ticks", "states", "logged", "changed")

    def __init__(self, queue: QueueState, times: array):
        self.queue = queue
        self.times = times
        self.ticks = array("q")
        self.states = array("q")
        self.logged = len(times)
        self.changed = queue.time  # no size change after this yet

    def __len__(self) -> int:
        """The number of entries logged."""
        return len(self.ticks)

    def append(self, ticks: int, state: list[int]) -> None:
        """Log ``state``, ``[total, size, integral − size·time]``, as
        the entry once ``ticks`` samples were taken.

        ``fromlist`` adds all three words or none, so a state that does
        not fit in 64 bits leaves no partial entry: the states then
        become Python ints, once, and the entry is added to those.
        """
        try:
            self.states.fromlist(state)
        except OverflowError:
            self.states = _Wide(self.states)
            self.states.fromlist(state)
        self.ticks.append(ticks)
        self.logged = ticks

    def at(self, tick: int, time: int) -> tuple[int, int]:
        """``(total, integral)`` at sample ``tick``, taken at ``time``."""
        index = bisect_right(self.ticks, tick)
        if index < len(self.ticks):
            total, size, base = self.states[3 * index:3 * index + 3]
            return total, base + size * time
        return self._live(time)

    def series(self, start: int = 0):
        """``(total, integral)`` at every sample from ``start`` on, in
        one forward pass: each entry answers the samples up to its
        tick, and the live state the ones after the last entry."""
        times = self.times
        states = self.states
        index = bisect_right(self.ticks, start)
        for tick in self.ticks[index:]:
            total, size, base = states[3 * index:3 * index + 3]
            for time in times[start:tick]:
                yield total, base + size * time
            start = tick
            index += 1
        for time in times[start:]:
            yield self._live(time)

    def seal(self) -> None:
        """End logging at the sampler's last sample.

        Logs the queue's state for the samples not yet covered, then
        folds the queue to the last sample's time in place — the
        arithmetic, mutation and backwards-clock error of ``track(0)``,
        without the call — and detaches.  Sealing twice does nothing, and
        sealing before the first sample only detaches.
        """
        queue = self.queue
        if queue._log is not self:
            return
        queue._log = None
        if not self.times:
            return
        ticks = len(self.times)
        if ticks != self.logged:
            self.append(ticks, [
                queue.total, queue.size,
                queue.integral - queue.size * queue.time,
            ])
        now = self.times[-1]
        dt = now - queue.time
        if dt:
            if dt < 0:
                raise EstimationError(
                    f"clock moved backwards: {queue.time} -> {now}"
                )
            queue.time = now
            if queue.size:
                queue.integral += queue.size * dt

    def _live(self, time: int) -> tuple[int, int]:
        """The live state's answer at ``time``, a sample taken after the
        queue's last size change.  That change came no earlier than the
        last logged one, so a ``time`` before the logged one means the
        queue's clock ran ahead of the sampler's."""
        if time < self.changed:
            raise EstimationError(
                f"clock moved backwards: {self.changed} -> {time}"
            )
        queue = self.queue
        return queue.total, queue.integral + queue.size * (time - queue.time)
