"""The discrete-event loop.

:class:`Simulator` owns the clock and a heap of scheduled callbacks.  Time
never moves backwards; callbacks scheduled for the same instant run in the
order they were scheduled (FIFO within a timestamp), which keeps runs
deterministic regardless of heap internals.

Hot-path layout: heap entries are plain ``[time, seq, callback]`` lists,
so every sift compares ``(time, seq)`` at C speed instead of calling a
Python ``__lt__`` (``seq`` is unique, so callbacks are never compared).
``call_at``/``call_after`` return the entry itself, and
:meth:`Simulator.cancel` clears its callback slot.  The loop clears the
same slot just before a callback runs, so an empty slot means "will not
fire": cancelling after execution, or twice, is a no-op.  Dead entries
are skipped lazily on pop, and the heap is compacted in place once they
outnumber the live ones, so cancel-heavy workloads (TCP
retransmit/delack timers are armed and disarmed per segment) cannot
bloat the heap.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable

from repro.errors import SimulationError, WatchdogError

# Compact once at least this many cancelled entries linger in the heap
# *and* they outnumber the live ones.  The floor keeps tiny heaps from
# compacting constantly; the ratio bounds wasted heap memory and pop
# work at 2x regardless of workload.
_COMPACT_MIN_DEAD = 64


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Typical use::

        sim = Simulator()
        sim.call_after(1000, lambda: print("at t=1000ns"))
        sim.run()

    Processes (see :mod:`repro.sim.process`) are spawned via
    :meth:`spawn`, which exists here only as a convenience re-export to
    avoid import cycles in user code.
    """

    def __init__(self, start_time: int = 0):
        # Public plain attribute, not a property: the clock is read on
        # every TRACK call and trace emit across the codebase, and an
        # attribute load is several times cheaper than a property call.
        # Only the dispatch loop writes it.
        self.now = start_time
        # Entries: [time, seq, callback]; None once cancelled or run.
        self._heap: list[list] = []
        self._seq = count()  # FIFO tie-breaker within a timestamp
        self._dead = 0  # cancelled entries still sitting in the heap
        self._running = False
        self._stopped = False
        self._executed = 0
        self._event_budget: int | None = None

    # ------------------------------------------------------------------
    # Watchdog budget.
    # ------------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Callbacks run so far (the watchdog's work measure)."""
        return self._executed

    def set_event_budget(self, max_events: int | None) -> None:
        """Cap total executed callbacks; ``None`` removes the cap.

        Exceeding the cap raises :class:`~repro.errors.WatchdogError`
        from :meth:`run`/:meth:`step` *before* the over-budget callback
        fires — the fail-fast path for runaway configurations whose
        event count explodes while simulated time barely advances.
        """
        if max_events is not None and max_events <= 0:
            raise SimulationError(
                f"event budget must be positive, got {max_events}"
            )
        self._event_budget = max_events

    def _budget_exceeded(self, executed: int | None = None) -> WatchdogError:
        count = self._executed if executed is None else executed
        return WatchdogError(
            f"event budget exhausted: {count} callbacks executed "
            f"(budget {self._event_budget}) at t={self.now}ns"
        )

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def call_at(self, time: int, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Returns the heap entry; pass it to :meth:`cancel` to prevent the
        callback from running.  Scheduling in the past is an error.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        entry = [time, next(self._seq), callback]
        heappush(self._heap, entry)
        return entry

    def call_after(self, delay: int, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        entry = [self.now + delay, next(self._seq), callback]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Prevent a scheduled callback from running.

        ``entry`` is what :meth:`call_at`/:meth:`call_after` returned; a
        no-op if its callback already ran or was cancelled.
        """
        if entry[2] is not None:
            entry[2] = None
            self._note_cancel()

    def _note_cancel(self) -> None:
        """Account one cancellation; compact the heap when mostly dead."""
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            # In-place so loops holding a reference to the list see the
            # compacted heap (run() aliases it locally).
            self._heap[:] = [e for e in self._heap if e[2] is not None]
            heapify(self._heap)
            self._dead = 0

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next scheduled callback.

        Returns False when the heap is exhausted (nothing ran).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            callback = entry[2]
            if callback is None:
                heappop(heap)
                self._dead -= 1
                continue
            if (
                self._event_budget is not None
                and self._executed >= self._event_budget
            ):
                raise self._budget_exceeded()
            heappop(heap)
            entry[2] = None
            self.now = entry[0]
            self._executed += 1
            callback()
            return True
        return False

    def run(self, until: int | None = None) -> None:
        """Run until the event heap is empty, or until simulated time would
        pass ``until`` (the clock is then advanced to exactly ``until``).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        budget = self._event_budget
        executed = self._executed
        try:
            if until is None:
                while heap and not self._stopped:
                    entry = heap[0]
                    callback = entry[2]
                    if callback is None:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if budget is not None and executed >= budget:
                        raise self._budget_exceeded(executed)
                    pop(heap)
                    entry[2] = None
                    self.now = entry[0]
                    executed += 1
                    callback()
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    callback = entry[2]
                    if callback is None:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if entry[0] > until:
                        break
                    if budget is not None and executed >= budget:
                        raise self._budget_exceeded(executed)
                    pop(heap)
                    entry[2] = None
                    self.now = entry[0]
                    executed += 1
                    callback()
                if not self._stopped and self.now < until:
                    self.now = until
        finally:
            self._executed = executed
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled entries."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # Process convenience.
    # ------------------------------------------------------------------

    def spawn(self, generator, name: str | None = None):
        """Spawn a generator as a :class:`~repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)
