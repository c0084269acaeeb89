"""One :class:`CounterClock` against one timer per collector.

Each collector used to own its periodic timer.  The clock replaced them
with one timer per simulation that samples its collectors in the order
given, on the claim that nothing can run between the
per-collector ticks of one instant.  These tests keep the old timer as
the reference and run both through the same seeded queue churn, with
other callbacks landing exactly on tick instants, so ties at the same
nanosecond are exercised in both directions (scheduled before a tick and
after it).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.counters import CounterClock, CounterCollector
from repro.core.qstate import QueueState
from repro.errors import EstimationError
from repro.obs.tracer import Tracer
from repro.sim.loop import Simulator

PERIOD = 50
START = 120
END = 120 + 40 * PERIOD  # the last tick lands on the stop instant


class _PerCollectorTimer:
    """The timer each collector used to own (the reference)."""

    def __init__(self, sim, collector):
        self._sim = sim
        self._collector = collector
        self._timer = None

    def start(self):
        self._collector.sample_now()
        self._timer = self._sim.call_after(
            self._collector.period_ns, self._tick
        )

    def stop(self):
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
        self._collector.sample_now()

    def _tick(self):
        self._collector.sample_now()
        self._timer = self._sim.call_after(
            self._collector.period_ns, self._tick
        )


class _Endpoint:
    def __init__(self, sim, name):
        clock = lambda: sim.now  # noqa: E731 — sockets bind host.clock
        self.name = name
        self.qs_unacked = QueueState(clock)
        self.qs_unread = QueueState(clock)
        self.qs_ackdelay = QueueState(clock)

    def queues(self):
        return (self.qs_unacked, self.qs_unread, self.qs_ackdelay)


def _run(seed: int, collectors: int, with_clock: bool):
    """One seeded run; returns the collectors, tracer, log and events."""
    sim = Simulator()
    tracer = Tracer()
    tracer.bind_clock(sim)
    rng = random.Random(seed)
    endpoints = [
        _Endpoint(sim, f"{side}.{index}")
        for index in range(collectors)
        for side in ("client", "server")
    ]
    sampled = [
        CounterCollector(
            sim, endpoints[2 * index], endpoints[2 * index + 1],
            period_ns=PERIOD, tracer=tracer,
        )
        for index in range(collectors)
    ]
    log = []

    def touch(tag):
        # Arrivals and departures on a few queues, logged and traced, so
        # running on the other side of a tick changes rows and records.
        log.append((sim.now, tag))
        tracer.emit("test.churn", tag)
        for _ in range(rng.randrange(1, 4)):
            queue = rng.choice(endpoints).queues()[rng.randrange(3)]
            if queue.size and rng.random() < 0.5:
                queue.track(-rng.randrange(1, queue.size + 1))
            else:
                queue.track(rng.randrange(0, 5))

    def churn(tag):
        touch(tag)
        if rng.random() < 0.3:  # a zero-delay hop, like a wakeup
            sim.call_after(0, lambda: touch(f"{tag}+0"))
        if sim.now < END:
            if rng.random() < 0.5:  # exactly on a later tick instant
                ticks_ahead = rng.randrange(1, 4)
                when = (
                    START + (max(sim.now - START, 0) // PERIOD + ticks_ahead)
                    * PERIOD
                )
            else:
                when = sim.now + rng.randrange(1, 2 * PERIOD)
            sim.call_at(when, lambda: churn(tag))

    for index in range(3):
        sim.call_at(rng.randrange(0, START), lambda i=index: churn(f"c{i}"))
    sim.call_at(START, lambda: churn("at-start"))  # before the start tick

    if with_clock:
        clock = CounterClock(sim, sampled)
        sim.call_at(START, clock.start)
        sim.run(until=END)
        clock.stop()
    else:
        timers = [_PerCollectorTimer(sim, c) for c in sampled]

        def begin():
            for timer in timers:
                timer.start()

        sim.call_at(START, begin)
        sim.run(until=END)
        for timer in timers:
            timer.stop()
    return sampled, tracer, log, sim.events_executed


@pytest.mark.parametrize("collectors", [1, 2, 3, 4])
def test_clock_reproduces_per_collector_timers(collectors):
    for seed in range(6):
        ref, ref_tracer, ref_log, ref_events = _run(seed, collectors, False)
        got, tracer, log, events = _run(seed, collectors, True)
        assert log == ref_log, f"seed {seed}: other events reordered"
        assert tracer.records == ref_tracer.records, f"seed {seed}"
        assert any(r["type"] == "queue.sample" for r in tracer.records)
        times = ref[0]._times
        assert times[0] == START and times[-1] == END
        rng = random.Random(seed)
        for mine, theirs in zip(got, ref):
            assert mine._times == theirs._times, f"seed {seed}"
            assert mine._rows == theirs._rows, f"seed {seed}"
            assert mine.samples == theirs.samples, f"seed {seed}"
            for _ in range(40):
                start, end = sorted(rng.sample(times, 2))
                assert mine.window_estimate(start, end) == (
                    theirs.window_estimate(start, end)
                ), f"seed {seed}: [{start}, {end}]"
        # One tick event per instant instead of one per collector; the
        # final stop-sample at END runs no event in either.
        ticks = len(times) - 2
        assert ref_events - events == (collectors - 1) * ticks


def test_clock_needs_collectors_of_one_period(sim):
    endpoint = _Endpoint(sim, "e")
    fast, slow = (
        CounterCollector(sim, endpoint, endpoint, period_ns=period)
        for period in (500, 1000)
    )
    assert CounterClock(sim, [slow, slow]).period_ns == 1000
    with pytest.raises(EstimationError):
        CounterClock(sim, [slow, fast])
    with pytest.raises(EstimationError):
        CounterClock(sim, [])


def test_stopped_clock_schedules_nothing(sim):
    endpoint = _Endpoint(sim, "e")
    collector = CounterCollector(sim, endpoint, endpoint, period_ns=1000)
    clock = CounterClock(sim, [collector])
    clock.start()
    sim.run(until=2500)
    clock.stop()
    assert sim.pending == 0
    assert [s.time for s in collector.samples] == [0, 1000, 2000, 2500]
