"""One :class:`CounterClock` against one eager timer per collector.

Each collector used to own its periodic timer, and each tick folded its
queues and stored a row.  The clock replaced them with one timer per
simulation, on the claim that nothing can run between the per-collector
ticks of one instant, and its ticks read no queue: sampled queues log
their changes and rows are built when read.  These tests keep the old
timers as the reference, each recording
:meth:`TripleSnapshot.capture` of its collector's endpoints at every
tick, and run both through the same seeded queue churn, with other
callbacks landing exactly on tick instants, so ties at the same
nanosecond are exercised in both directions (scheduled before a tick and
after it).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.counters import (
    CounterClock,
    CounterCollector,
    CounterSample,
)
from repro.analysis.offline import window_estimate
from repro.core.qstate import QueueState, TripleSnapshot
from repro.errors import EstimationError
from repro.obs.tracer import Tracer
from repro.sim.loop import Simulator

PERIOD = 50
START = 120
END = 120 + 40 * PERIOD  # the last tick lands on the stop instant


class _PerCollectorTimer:
    """The timer each collector used to own, sampling eagerly (the
    reference): every tick captures both endpoints' snapshots and emits
    their ``queue.sample`` records."""

    def __init__(self, sim, tracer, period_ns, client, server):
        self._sim = sim
        self._tracer = tracer
        self._period_ns = period_ns
        self._client = client
        self._server = server
        self._timer = None
        self.samples: list[CounterSample] = []

    def start(self):
        self._sample()
        self._timer = self._sim.call_after(self._period_ns, self._tick)

    def stop(self):
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
        self._sample()

    def _sample(self):
        sample = CounterSample(
            time=self._sim.now,
            client=TripleSnapshot.capture(self._client),
            server=TripleSnapshot.capture(self._server),
        )
        self.samples.append(sample)
        self._tracer.queue_sample(self._client.name, sample.client)
        self._tracer.queue_sample(self._server.name, sample.server)

    def _tick(self):
        self._sample()
        self._timer = self._sim.call_after(self._period_ns, self._tick)


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
    """One seeded run; returns each collector's samples (built from the
    clock's logs, or captured by the reference timers), the tracer, the
    log of other callbacks and the event count."""
    sim = Simulator()
    tracer = Tracer()
    tracer.bind_clock(sim)
    rng = random.Random(seed)
    endpoints = [
        _Endpoint(sim, f"{side}.{index}")
        for index in range(collectors)
        for side in ("client", "server")
    ]
    pairs = [
        (endpoints[2 * index], endpoints[2 * index + 1])
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
        sampled = [
            CounterCollector(
                sim, client, server, period_ns=PERIOD, tracer=tracer
            )
            for client, server in pairs
        ]
        clock = CounterClock(sim, sampled)
        sim.call_at(START, clock.start)
        sim.run(until=END)
        clock.stop()
        series = [collector.samples for collector in sampled]
    else:
        sampled = timers = [
            _PerCollectorTimer(sim, tracer, PERIOD, client, server)
            for client, server in pairs
        ]

        def begin():
            for timer in timers:
                timer.start()

        sim.call_at(START, begin)
        sim.run(until=END)
        for timer in timers:
            timer.stop()
        series = [timer.samples for timer in timers]
    return sampled, series, tracer, log, sim.events_executed


@pytest.mark.parametrize("collectors", [1, 2, 3, 4])
def test_clock_reproduces_per_collector_timers(collectors):
    for seed in range(6):
        _, ref, ref_tracer, ref_log, ref_events = _run(seed, collectors, False)
        got, series, tracer, log, events = _run(seed, collectors, True)
        assert log == ref_log, f"seed {seed}: other events reordered"
        assert tracer.records == ref_tracer.records, f"seed {seed}"
        assert any(r["type"] == "queue.sample" for r in tracer.records)
        times = [sample.time for sample in ref[0]]
        assert times[0] == START and times[-1] == END
        rng = random.Random(seed)
        for collector, mine, theirs in zip(got, series, ref):
            assert collector.sample_count == len(theirs), f"seed {seed}"
            assert mine == theirs, f"seed {seed}"
            for _ in range(40):
                start, end = sorted(rng.sample(times, 2))
                assert collector.window_estimate(start, end) == (
                    window_estimate(theirs, start, end)
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


def test_queue_sampled_by_a_second_running_clock_raises(sim):
    """A queue logs for one running clock at a time; one endpoint used
    as both sides, or one collector listed twice, is one log."""
    shared, other, spare = (_Endpoint(sim, name) for name in "abc")
    first = CounterClock(
        sim, [CounterCollector(sim, shared, other, period_ns=1000)]
    )
    second = CounterClock(
        sim, [CounterCollector(sim, spare, shared, period_ns=1000)]
    )
    first.start()
    with pytest.raises(EstimationError, match="another running clock"):
        second.start()

    both_sides = CounterCollector(sim, spare, spare, period_ns=1000)
    twice = CounterClock(sim, [both_sides, both_sides])
    twice.start()
    spare.qs_unacked.track(3)
    sim.run(until=2500)
    spare.qs_unacked.track(-1)
    twice.stop()
    first.stop()
    samples = both_sides.samples
    assert [s.time for s in samples] == [0, 1000, 2000, 2500]
    assert all(s.client == s.server for s in samples)
    assert [s.client.unacked.integral for s in samples] == [
        0, 3000, 6000, 7500
    ]
    assert spare.qs_unacked.total == 1

    # Once the first clock stopped, a new one may sample the queue.
    third = CounterClock(
        sim, [CounterCollector(sim, other, shared, period_ns=1000)]
    )
    third.start()
    third.stop()
    with pytest.raises(EstimationError, match="runs once"):
        third.start()
