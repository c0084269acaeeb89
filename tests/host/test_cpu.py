"""Tests for the CPU core executor."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.host.cpu import CpuCore
from repro.sim.process import Timeout


def _ignore(_arg) -> None:
    return None


class TestCpuCoreExecution:
    def test_work_runs_after_cost(self, sim):
        core = CpuCore(sim)
        done = []
        core.execute(500, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [500]

    def test_serial_fifo(self, sim):
        core = CpuCore(sim)
        done = []
        stamp = lambda name: done.append((name, sim.now))  # noqa: E731
        core.execute(100, stamp, "a")
        core.execute(200, stamp, "b")
        core.execute(50, stamp, "c")
        sim.run()
        assert done == [("a", 100), ("b", 300), ("c", 350)]

    def test_negative_cost_rejected(self, sim):
        core = CpuCore(sim)
        with pytest.raises(SimulationError):
            core.execute(-1, _ignore, None)

    def test_zero_cost_allowed(self, sim):
        core = CpuCore(sim)
        done = []
        core.execute(0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [0]

    def test_submit_waitable(self, sim):
        core = CpuCore(sim)
        times = []

        def proc():
            yield core.submit(300)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [300]

    def test_completing_item_reenters_behind_queued_work(self, sim):
        # The softirq path: a delivery that emits a pure ack submits the
        # ack's TX cost to the same core from inside its completion.  It
        # queues behind work already waiting, and the core never idles
        # in between.
        core = CpuCore(sim)
        done = []

        def deliver(name):
            done.append((name, sim.now))
            core.execute(30, lambda ack: done.append((ack, sim.now)), "ack")

        core.execute(100, deliver, "data")
        core.execute(50, lambda name: done.append((name, sim.now)), "next")
        sim.run()
        assert done == [("data", 100), ("next", 150), ("ack", 180)]
        assert (core.busy_ns, core.work_items) == (180, 3)

    def test_completing_item_reenters_idle_queue(self, sim):
        core = CpuCore(sim)
        done = []

        def deliver(name):
            done.append((name, sim.now))
            core.execute(30, lambda ack: done.append((ack, sim.now)), "ack")
            assert core.queue_depth == 1  # queued, not started re-entrantly

        core.execute(100, deliver, "data")
        sim.run()
        assert done == [("data", 100), ("ack", 130)]
        assert core.utilization() == pytest.approx(1.0)

    def test_interrupted_process_with_queued_work_is_dropped(self, sim):
        core = CpuCore(sim)
        progressed = []
        core.execute(500, _ignore, None)

        def proc():
            yield core.submit(100)
            progressed.append(sim.now)  # pragma: no cover

        process = sim.spawn(proc())
        sim.call_at(50, process.interrupt)
        sim.run()
        # The queued item still ran and was charged; its resume found
        # the process finished and was dropped without raising.
        assert sim.now == 600
        assert (core.busy_ns, core.work_items) == (600, 2)
        assert not process.alive and process.failure is None
        assert progressed == []

    def test_queue_depth(self, sim):
        core = CpuCore(sim)
        core.execute(100, _ignore, None)
        core.execute(100, _ignore, None)
        core.execute(100, _ignore, None)
        assert core.queue_depth == 2  # one running, two queued


class TestUtilization:
    def test_fully_busy(self, sim):
        core = CpuCore(sim)
        core.execute(1000, _ignore, None)
        sim.run()
        sim.call_at(1000, lambda: None)
        sim.run()
        assert core.utilization() == pytest.approx(1.0)

    def test_half_busy(self, sim):
        core = CpuCore(sim)
        core.execute(500, _ignore, None)
        sim.run(until=1000)
        assert core.utilization() == pytest.approx(0.5)

    def test_window_reset(self, sim):
        core = CpuCore(sim)
        core.execute(1000, _ignore, None)
        sim.run(until=1000)
        core.reset_window()
        sim.run(until=2000)
        assert core.utilization() == pytest.approx(0.0)

    def test_interleaved_with_process_work(self, sim):
        core = CpuCore(sim)

        def worker():
            for _ in range(5):
                yield core.submit(100)
                yield Timeout(100)

        sim.spawn(worker())
        sim.run(until=1000)
        assert core.utilization() == pytest.approx(0.5)
        assert core.work_items == 5
