"""Tests for the discrete-event loop."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.loop import Simulator


class TestScheduling:
    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.call_at(30, lambda: order.append("c"))
        sim.call_at(10, lambda: order.append("a"))
        sim.call_at(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_is_fifo(self, sim):
        order = []
        for index in range(5):
            sim.call_at(100, lambda i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_callback_time(self, sim):
        seen = []
        sim.call_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_call_after_is_relative(self, sim):
        seen = []
        sim.call_at(10, lambda: sim.call_after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15]

    def test_scheduling_in_past_rejected(self, sim):
        sim.call_at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        ran = []
        entry = sim.call_at(10, lambda: ran.append(1))
        sim.cancel(entry)
        sim.run()
        assert ran == []

    def test_pending_excludes_cancelled(self, sim):
        entry = sim.call_at(10, lambda: None)
        sim.call_at(20, lambda: None)
        assert sim.pending == 2
        sim.cancel(entry)
        assert sim.pending == 1


class TestCancellationAccounting:
    def test_double_cancel_does_not_double_decrement(self, sim):
        entry = sim.call_at(10, lambda: None)
        sim.call_at(20, lambda: None)
        sim.cancel(entry)
        sim.cancel(entry)
        assert sim.pending == 1

    def test_cancel_after_execution_is_noop(self, sim):
        ran = []
        entry = sim.call_at(10, lambda: ran.append(1))
        sim.call_at(20, lambda: None)
        sim.run(until=15)
        assert ran == [1]
        assert sim.pending == 1
        sim.cancel(entry)
        sim.cancel(entry)
        assert sim.pending == 1

    def test_pending_tracks_push_pop_cancel(self, sim):
        entries = [sim.call_at(10 * i, lambda: None) for i in range(1, 6)]
        assert sim.pending == 5
        sim.cancel(entries[0])
        assert sim.pending == 4
        assert sim.step()  # runs the entry at t=20
        assert sim.pending == 3
        sim.cancel(entries[2])
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_mass_cancellation_compacts_heap(self, sim):
        keep = []
        entries = []
        for index in range(300):
            if index % 4 == 0:
                sim.call_at(1000 + index, lambda i=index: keep.append(i))
            else:
                entries.append(sim.call_at(1000 + index, lambda: None))
        for entry in entries:
            sim.cancel(entry)
        # Cancelled entries outnumber live ones well past the compaction
        # threshold, so the heap must have shrunk to the live set.
        assert sim.pending == 75
        assert len(sim._heap) == 75
        sim.run()
        assert keep == list(range(0, 300, 4))  # FIFO order preserved


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        ran = []
        sim.call_at(10, lambda: ran.append(10))
        sim.call_at(100, lambda: ran.append(100))
        sim.run(until=50)
        assert ran == [10]
        assert sim.now == 50
        sim.run()
        assert ran == [10, 100]

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run(until=1000)
        assert sim.now == 1000

    def test_stop_interrupts_run(self, sim):
        ran = []

        def first():
            ran.append(1)
            sim.stop()

        sim.call_at(10, first)
        sim.call_at(20, lambda: ran.append(2))
        sim.run()
        assert ran == [1]

    def test_step_runs_one_callback(self, sim):
        ran = []
        sim.call_at(10, lambda: ran.append(1))
        sim.call_at(20, lambda: ran.append(2))
        assert sim.step()
        assert ran == [1]
        assert sim.step()
        assert not sim.step()

    def test_reentrant_run_rejected(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_at(10, nested)
        sim.run()

    def test_callbacks_can_schedule_more(self, sim):
        count = []

        def chain(n):
            count.append(n)
            if n < 5:
                sim.call_after(10, lambda: chain(n + 1))

        sim.call_at(0, lambda: chain(0))
        sim.run()
        assert count == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50
