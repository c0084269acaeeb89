"""Tests for generator processes."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError
from repro.host.cpu import CpuCore
from repro.sim.events import Event
from repro.sim.process import Process, Timeout
from repro.sim.resources import Store


class TestTimeout:
    def test_process_sleeps_for_delay(self, sim):
        times = []

        def proc():
            times.append(sim.now)
            yield Timeout(100)
            times.append(sim.now)
            yield Timeout(50)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0, 100, 150]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ProcessError):
            Timeout(-1)


class TestProcessLifecycle:
    def test_return_value_becomes_result(self, sim):
        def proc():
            yield Timeout(1)
            return "done"

        process = sim.spawn(proc())
        sim.run()
        assert not process.alive
        assert process.result == "done"

    def test_spawn_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(ProcessError):
            Process(sim, not_a_generator)  # missing call / not a generator

    def test_yielding_garbage_raises(self, sim):
        def proc():
            yield 42

        sim.spawn(proc(), name="worker")
        with pytest.raises(ProcessError) as error:
            sim.run()
        assert str(error.value) == "process 'worker' yielded non-waitable int: 42"

    def test_resume_values_from_every_waitable(self, sim):
        event = Event(sim)
        core = CpuCore(sim)
        store = Store(sim)
        got = []

        def child():
            yield Timeout(3)
            return "child-result"

        def proc():
            got.append(("timeout", (yield Timeout(10)), sim.now))
            got.append(("event", (yield event), sim.now))
            got.append(("cpu", (yield core.submit(7)), sim.now))
            got.append(("store", (yield store.get()), sim.now))
            got.append(("process", (yield sim.spawn(child())), sim.now))

        sim.spawn(proc())
        sim.call_at(20, lambda: event.trigger("fired"))
        sim.call_at(40, lambda: store.put("item"))
        sim.run()
        assert got == [
            ("timeout", None, 10),
            ("event", "fired", 20),
            ("cpu", None, 27),
            ("store", "item", 40),
            ("process", "child-result", 43),
        ]

    def test_waiting_on_event_receives_value(self, sim):
        event = Event(sim)
        got = []

        def proc():
            value = yield event
            got.append(value)

        sim.spawn(proc())
        sim.call_at(50, lambda: event.trigger("hello"))
        sim.run()
        assert got == ["hello"]

    def test_parent_waits_for_child(self, sim):
        order = []

        def child():
            yield Timeout(100)
            order.append("child")
            return "child-result"

        def parent():
            result = yield sim.spawn(child(), name="child")
            order.append(("parent", result, sim.now))

        sim.spawn(parent())
        sim.run()
        assert order[0] == "child"
        assert order[1] == ("parent", "child-result", 100)

    def test_interrupt_terminates(self, sim):
        progressed = []

        def proc():
            yield Timeout(100)
            progressed.append(True)

        process = sim.spawn(proc())
        sim.call_at(50, process.interrupt)
        sim.run()
        assert not process.alive
        assert progressed == []

    def test_crash_propagates_and_marks_failure(self, sim):
        def proc():
            yield Timeout(1)
            raise ValueError("boom")

        process = sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run()
        assert not process.alive
        assert isinstance(process.failure, ValueError)

    def test_two_processes_interleave(self, sim):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield Timeout(period)
                log.append((name, sim.now))

        sim.spawn(ticker("a", 10))
        sim.spawn(ticker("b", 15))
        sim.run()
        # At t=30 both tick; b's timer was scheduled earlier (t=15 vs
        # t=20), so FIFO tie-breaking runs b first.
        assert log == [
            ("a", 10), ("b", 15), ("a", 20), ("b", 30), ("a", 30), ("b", 45),
        ]
