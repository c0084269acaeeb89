"""The event kernel against the tuple-and-handle kernel it replaced.

Heap entries used to be ``(time, seq, callback, handle)`` tuples with a
:class:`ScheduleHandle` per scheduled callback; they are now
``[time, seq, callback]`` lists cancelled through
:meth:`Simulator.cancel`.  The old kernel is kept below verbatim as the
reference, and hypothesis runs random programs on both: absolute and
relative scheduling with zero delays and same-instant ties, nested
scheduling and cancelling from inside callbacks, cancels before firing,
after firing and twice, cancel bursts past the compaction threshold,
``run(until=)``, ``step()``, ``stop()`` and event budgets that trip.
Both must run the same callbacks in the same order at the same instants
and agree on ``now``, ``pending``, ``events_executed``, the heap size
and every :class:`WatchdogError`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, WatchdogError
from repro.sim.loop import Simulator

_COMPACT_MIN_DEAD = 64


# ---------------------------------------------------------------------------
# The reference: the previous kernel, verbatim.
# ---------------------------------------------------------------------------


class ScheduleHandle:
    """Cancellation handle for one scheduled callback.

    ``_done`` doubles as "consumed": the loop flips it just before the
    callback runs, so ``cancel()`` after execution is a no-op and a
    double ``cancel()`` cannot double-decrement the live-entry count.
    """

    __slots__ = ("_sim", "_done")

    def __init__(self, sim: "ReferenceSimulator"):
        self._sim = sim
        self._done = False

    @property
    def cancelled(self) -> bool:
        """Whether this entry will no longer fire (cancelled or already ran)."""
        return self._done

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already did)."""
        if not self._done:
            self._done = True
            self._sim._note_cancel()


class ReferenceSimulator:
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
        # Entries: (time, seq, callback, handle).
        self._heap: list[tuple[int, int, Callable[[], None], ScheduleHandle]] = []
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

    def call_at(self, time: int, callback: Callable[[], None]) -> ScheduleHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Returns a handle whose ``cancel()`` prevents the callback from
        running.  Scheduling in the past is an error.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        handle = ScheduleHandle.__new__(ScheduleHandle)
        handle._sim = self
        handle._done = False
        heappush(self._heap, (time, next(self._seq), callback, handle))
        return handle

    def call_after(self, delay: int, callback: Callable[[], None]) -> ScheduleHandle:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        handle = ScheduleHandle.__new__(ScheduleHandle)
        handle._sim = self
        handle._done = False
        heappush(self._heap, (self.now + delay, next(self._seq), callback, handle))
        return handle

    def _note_cancel(self) -> None:
        """Account one cancellation; compact the heap when mostly dead."""
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            # In-place so loops holding a reference to the list see the
            # compacted heap (run() aliases it locally).
            self._heap[:] = [e for e in self._heap if not e[3]._done]
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
            if entry[3]._done:
                heappop(heap)
                self._dead -= 1
                continue
            if (
                self._event_budget is not None
                and self._executed >= self._event_budget
            ):
                raise self._budget_exceeded()
            heappop(heap)
            entry[3]._done = True
            self.now = entry[0]
            self._executed += 1
            entry[2]()
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
                    if entry[3]._done:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if budget is not None and executed >= budget:
                        raise self._budget_exceeded(executed)
                    pop(heap)
                    entry[3]._done = True
                    self.now = entry[0]
                    executed += 1
                    entry[2]()
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    if entry[3]._done:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if entry[0] > until:
                        break
                    if budget is not None and executed >= budget:
                        raise self._budget_exceeded(executed)
                    pop(heap)
                    entry[3]._done = True
                    self.now = entry[0]
                    executed += 1
                    entry[2]()
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


# ---------------------------------------------------------------------------
# Random programs.
# ---------------------------------------------------------------------------

#: Nested scheduling stops once a program has scheduled this many
#: callbacks, so chains cannot grow without bound.
_CAP = 400

_DELAYS = st.sampled_from([0, 0, 0, 1, 5, 10, 10, 50, 200])

_NESTED = st.one_of(
    st.tuples(st.just("after"), _DELAYS),
    st.tuples(st.just("at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel_self")),
    st.tuples(st.just("stop")),
)

_TOP = st.one_of(
    st.tuples(st.just("after"), _DELAYS),
    st.tuples(st.just("at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("burst"), st.integers(60, 200), st.integers(2, 5)),
    st.tuples(st.just("run")),
    st.tuples(st.just("until"), st.integers(0, 300)),
    st.tuples(st.just("step")),
    st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(1, 60))),
)


def _cancel_handle(sim, handle) -> None:
    handle.cancel()


def _cancel_entry(sim, entry) -> None:
    sim.cancel(entry)


class _Program:
    """One random program bound to one kernel.

    Callback ``i`` logs ``(i, now)`` and then applies behaviour
    ``i mod len(behaviours)``; ``scheduled[i]`` is what scheduling it
    returned, so ``cancel`` picks any callback scheduled so far (pending,
    already run, or already cancelled).
    """

    def __init__(self, sim, cancel, behaviours):
        self.sim = sim
        self._cancel = cancel
        self._behaviours = behaviours
        self.scheduled = []
        self.log = []

    def schedule(self, kind: str, delay: int, nested: bool = False) -> None:
        index = len(self.scheduled)
        if nested and index >= _CAP:
            return
        callback = lambda: self._fire(index)  # noqa: E731
        if kind == "at":
            scheduled = self.sim.call_at(self.sim.now + delay, callback)
        else:
            scheduled = self.sim.call_after(delay, callback)
        self.scheduled.append(scheduled)

    def cancel(self, index: int) -> None:
        if self.scheduled:
            self._cancel(self.sim, self.scheduled[index % len(self.scheduled)])

    def _fire(self, index: int) -> None:
        self.log.append((index, self.sim.now))
        for action in self._behaviours[index % len(self._behaviours)]:
            kind = action[0]
            if kind in ("at", "after"):
                self.schedule(kind, action[1], nested=True)
            elif kind == "cancel":
                self.cancel(action[1])
            elif kind == "cancel_self":
                self._cancel(self.sim, self.scheduled[index])
            else:
                self.sim.stop()


def _execute(sim, cancel, program, behaviours):
    """Run ``program`` on ``sim``; returns (callback log, state trace)."""
    run = _Program(sim, cancel, behaviours)
    trace = []
    for action in program:
        kind = action[0]
        try:
            if kind in ("at", "after"):
                run.schedule(kind, action[1])
            elif kind == "cancel":
                run.cancel(action[1])
            elif kind == "burst":
                # Far-future entries, most of them cancelled: enough dead
                # ones to cross the compaction threshold.
                first = len(run.scheduled)
                for offset in range(action[1]):
                    run.schedule("after", 10_000 + offset)
                for offset in range(action[1]):
                    if offset % action[2]:
                        run.cancel(first + offset)
            elif kind == "run":
                sim.run()
            elif kind == "until":
                sim.run(until=sim.now + action[1])
            elif kind == "step":
                trace.append(("step", sim.step()))
            elif action[1] is None:
                sim.set_event_budget(None)
            else:
                sim.set_event_budget(sim.events_executed + action[1])
        except WatchdogError as error:
            trace.append(("watchdog", str(error)))
        trace.append(
            (sim.now, sim.pending, sim.events_executed, len(sim._heap))
        )
    sim.set_event_budget(None)
    sim.run()
    trace.append((sim.now, sim.pending, sim.events_executed, len(sim._heap)))
    return run.log, trace


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    program=st.lists(_TOP, min_size=1, max_size=40),
    behaviours=st.lists(
        st.lists(_NESTED, max_size=4), min_size=1, max_size=8
    ),
)
def test_kernel_matches_reference(program, behaviours):
    expected = _execute(ReferenceSimulator(), _cancel_handle, program, behaviours)
    actual = _execute(Simulator(), _cancel_entry, program, behaviours)
    assert actual == expected


def test_programs_reach_compaction_and_budgets():
    """The program vocabulary reaches what the comparison is for: a
    burst compacts the heap, a budget trips mid-run, and chains stop at
    the cap.  Same numbers from both kernels."""
    program = [
        ("after", 0), ("after", 0), ("burst", 150, 3), ("budget", 2),
        ("run",), ("budget", None), ("until", 5), ("step",), ("run",),
    ]
    behaviours = [[("after", 0), ("cancel_self",)], [("at", 10)]]
    results = [
        _execute(ReferenceSimulator(), _cancel_handle, program, behaviours),
        _execute(Simulator(), _cancel_entry, program, behaviours),
    ]
    for log, trace in results:
        # 152 scheduled, 100 cancelled: compacted to 76 heap entries.
        assert trace[2] == (0, 52, 0, 76)
        assert trace[4] == (
            "watchdog",
            "event budget exhausted: 2 callbacks executed (budget 2) at t=0ns",
        )
        # Every callback up to the cap ran except the 100 cancelled.
        assert len(log) == _CAP - 100
        assert trace[-1] == (10_147, 0, _CAP - 100, 0)
    assert results[0] == results[1]
