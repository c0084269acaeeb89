"""The counter pipeline's flat columns against snapshot objects.

:class:`~repro.analysis.counters.CounterCollector` records each tick as
one row of ints and builds :class:`CounterSample` objects only on
demand.  A row is twelve ints, ``(total, integral)`` per queue: each
queue is folded to the sample time in place, without calling
:meth:`QueueState.track`.  These tests drive it through random queue
churn and compare it with objects the test builds itself, from
:meth:`QueueState.snapshot` and :meth:`TripleSnapshot.capture`.

``python`` names the pure-python column store, the one sample pipeline
left since its numpy twin was removed; the ids keep these tests'
long-standing names.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.counters import (
    CounterClock,
    CounterCollector,
    CounterSample,
    TripleSnapshot,
)
from repro.analysis.offline import window_estimate
from repro.core.qstate import QueueState
from repro.errors import EstimationError
from repro.sim.loop import Simulator

PIPELINES = ["python"]
SEEDS = range(5)


class _Endpoint:
    """Three queue states over one clock, like a socket exposes."""

    def __init__(self, sim):
        clock = lambda: sim.now  # noqa: E731 — sockets bind host.clock
        self.qs_unacked = QueueState(clock)
        self.qs_unread = QueueState(clock)
        self.qs_ackdelay = QueueState(clock)

    def queues(self):
        return (self.qs_unacked, self.qs_unread, self.qs_ackdelay)


def _churn(rng, endpoints):
    """Random arrivals and departures on every queue, at the current
    time (several calls per tick exercise same-tick coalescing)."""
    for endpoint in endpoints:
        for queue in endpoint.queues():
            if rng.random() < 0.7:
                queue.track(rng.randrange(0, 4))
            if queue.size and rng.random() < 0.5:
                queue.track(-rng.randrange(0, queue.size + 1))


def _reference(endpoint) -> TripleSnapshot:
    """The endpoint's snapshots, built object by object in the test."""
    unacked, unread, ackdelay = (q.snapshot() for q in endpoint.queues())
    return TripleSnapshot(unacked=unacked, unread=unread, ackdelay=ackdelay)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_sample_batch_materializes_identical_samples(pipeline):
    for seed in SEEDS:
        sim = Simulator()
        rng = random.Random(seed)
        client, server = _Endpoint(sim), _Endpoint(sim)
        collector = CounterCollector(sim, client, server, period_ns=1)
        expected = []
        for _ in range(200):
            sim.now += rng.randrange(0, 5)  # dt == 0 coalesces too
            _churn(rng, (client, server))
            collector.sample_now()
            # Snapshotting again at the same instant is a no-op track(0)
            # fold, so the objects see the ints the row recorded.
            expected.append(CounterSample(
                time=sim.now,
                client=_reference(client),
                server=TripleSnapshot.capture(server),
            ))
            snapshots = [
                snapshot
                for triple in (expected[-1].client, expected[-1].server)
                for snapshot in (triple.unacked, triple.unread, triple.ackdelay)
            ]
            assert {s.time for s in snapshots} == {collector._times[-1]}
            assert collector._rows[-12:] == [
                value for s in snapshots for value in (s.total, s.integral)
            ], f"seed {seed}"
            if rng.random() < 0.1:  # materialize mid-run, then extend
                assert collector.samples == expected, f"seed {seed}"
        assert collector.sample_count == len(expected)
        assert collector.samples == expected, f"seed {seed}"


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_sample_batch_window_estimate_matches_offline(pipeline):
    for seed in SEEDS:
        sim = Simulator()
        rng = random.Random(seed)
        client, server = _Endpoint(sim), _Endpoint(sim)
        collector = CounterCollector(sim, client, server, period_ns=100)
        clock = CounterClock(sim, [collector])

        def churn():
            _churn(rng, (client, server))
            sim.call_after(rng.randrange(1, 60), churn)

        churn()
        sim.call_at(250, clock.start)
        sim.run(until=20_000)
        clock.stop()
        samples = collector.samples
        times = [s.time for s in samples]
        checked = raised = 0
        for _ in range(300):
            if rng.random() < 0.5:  # boundaries exactly on sample times
                start, end = sorted(rng.sample(times, 2))
            else:
                start, end = sorted(rng.randrange(0, 21_000) for _ in "ab")
            inside = sum(start <= t <= end for t in times)
            if inside < 2:
                with pytest.raises(EstimationError):
                    collector.window_estimate(start, end)
                with pytest.raises(EstimationError):
                    window_estimate(samples, start, end)
                raised += 1
            else:
                assert collector.window_estimate(start, end) == (
                    window_estimate(samples, start, end)
                ), f"seed {seed}: [{start}, {end}]"
                checked += 1
        assert checked and raised, f"seed {seed}"


def test_sample_folds_like_track_and_keeps_its_backwards_clock_error():
    rng = random.Random(3)
    sim = Simulator()
    folded, tracked = _Endpoint(sim), _Endpoint(sim)
    collector = CounterCollector(sim, folded, _Endpoint(sim), period_ns=1)
    for _ in range(100):
        sim.now += rng.randrange(0, 4)
        for mine, theirs in zip(folded.queues(), tracked.queues()):
            if rng.random() < 0.5:  # else the sample's fold does the work
                nitems = rng.randrange(-mine.size, 4)
                mine.track(nitems)
                theirs.track(nitems)
        collector.sample_now()
        for theirs in tracked.queues():
            theirs.track(0)
        # The fold leaves each queue in the state track(0) leaves it in.
        assert [
            (q.time, q.size, q.total, q.integral) for q in folded.queues()
        ] == [
            (q.time, q.size, q.total, q.integral) for q in tracked.queues()
        ]
    # A queue whose clock is behind its stored time raises, as TRACK does.
    sim.now -= 1
    with pytest.raises(EstimationError, match="backwards"):
        tracked.qs_unacked.track(0)
    with pytest.raises(EstimationError, match="backwards"):
        collector.sample_now()
