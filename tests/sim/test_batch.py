"""The counter pipeline's change logs against snapshot objects.

:class:`~repro.analysis.counters.CounterClock` ticks read no queue:
while it runs, each sampled queue logs ``(tick, total, size, integral −
size·time)`` at its first size change after each tick
(:class:`~repro.core.qstate.ChangeLog`), and
:class:`~repro.analysis.counters.CounterCollector` builds
:class:`CounterSample` objects from the logs only when read.  These
tests drive it through random queue churn and compare it with objects
the test builds itself, from :meth:`QueueState.snapshot` and
:meth:`TripleSnapshot.capture` of twin queues that receive the same
TRACK calls and are snapshotted at every tick.

``python`` names the pure-python pipeline, the one sample pipeline left
since its numpy twin was removed; the ids keep these tests'
long-standing names.

The store is int64 words — the clock's instants and each log's entries
— and the last tests bound its bytes, check that readers still get
Python ints, and pin the one-way conversion of a log whose state passes
64 bits.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from array import array

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


def _churn_twins(rng, endpoint, twin):
    """:func:`_churn` on ``endpoint``, with every TRACK repeated on the
    same queue of ``twin``."""
    for mine, theirs in zip(endpoint.queues(), twin.queues()):
        if rng.random() < 0.7:
            nitems = rng.randrange(0, 4)
            mine.track(nitems)
            theirs.track(nitems)
        if mine.size and rng.random() < 0.5:
            nitems = -rng.randrange(0, mine.size + 1)
            mine.track(nitems)
            theirs.track(nitems)


def _reference(endpoint) -> TripleSnapshot:
    """The endpoint's snapshots, built object by object in the test."""
    unacked, unread, ackdelay = (q.snapshot() for q in endpoint.queues())
    return TripleSnapshot(unacked=unacked, unread=unread, ackdelay=ackdelay)


def _state(endpoint):
    return [(q.time, q.size, q.total, q.integral) for q in endpoint.queues()]


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_sample_batch_materializes_identical_samples(pipeline):
    for seed in SEEDS:
        sim = Simulator()
        rng = random.Random(seed)
        client, server = _Endpoint(sim), _Endpoint(sim)
        twin_client, twin_server = _Endpoint(sim), _Endpoint(sim)
        collector = CounterCollector(sim, client, server, period_ns=1)
        # Read only at the end: every row comes from the logs.
        unread = CounterCollector(sim, client, server, period_ns=1)
        clock = CounterClock(sim, [collector, unread])
        expected = []

        def reference():
            # The twins saw the same TRACKs; snapshotting them is the
            # eager fold the clock no longer does.
            expected.append(CounterSample(
                time=sim.now,
                client=_reference(twin_client),
                server=TripleSnapshot.capture(twin_server),
            ))

        clock.start()
        reference()
        for _ in range(200):
            sim.now += rng.randrange(0, 5)  # dt == 0 coalesces too
            _churn_twins(rng, client, twin_client)
            _churn_twins(rng, server, twin_server)
            clock.sample()
            reference()
            snapshots = [
                snapshot
                for triple in (expected[-1].client, expected[-1].server)
                for snapshot in (triple.unacked, triple.unread, triple.ackdelay)
            ]
            assert {s.time for s in snapshots} == {sim.now}
            if rng.random() < 0.1:  # materialize mid-run, then extend
                assert collector.samples == expected, f"seed {seed}"
        assert collector.sample_count == len(expected)
        assert collector.samples == expected, f"seed {seed}"
        # Stopping takes a final sample and seals the logs at it.
        sim.now += 1
        _churn_twins(rng, client, twin_client)
        clock.stop()
        reference()
        assert collector.samples == expected, f"seed {seed}"
        assert unread.samples == expected, f"seed {seed}"


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
    clock = CounterClock(sim, [collector])
    clock.start()
    for _ in range(100):
        sim.now += rng.randrange(0, 4)
        for mine, theirs in zip(folded.queues(), tracked.queues()):
            if rng.random() < 0.5:  # else the queue stays behind
                nitems = rng.randrange(-mine.size, 4)
                mine.track(nitems)
                theirs.track(nitems)
        clock.sample()
        # A tick leaves every queue as it was: only TRACK moves it.
        assert _state(folded) == _state(tracked)
    sim.now += rng.randrange(1, 4)
    clock.stop()
    for theirs in tracked.queues():
        theirs.track(0)
    # Stopping folds each queue to the last sample as track(0) would
    # (what `repro run --dump-counters` prints afterwards).
    assert _state(folded) == _state(tracked)

    # A queue whose clock is behind its stored time raises, as TRACK does.
    late = CounterClock(
        sim, [CounterCollector(sim, folded, _Endpoint(sim), period_ns=1)]
    )
    late.start()
    sim.now -= 1
    with pytest.raises(EstimationError, match="backwards"):
        tracked.qs_unacked.track(0)
    late.sample()
    with pytest.raises(EstimationError, match="backwards"):
        late.stop()


def test_log_holds_one_entry_per_changed_tick_interval():
    """At most one entry per queue for each tick interval that had a
    size-changing TRACK, plus the seal; idle ticks log nothing."""
    for seed in SEEDS:
        rng = random.Random(seed)
        sim = Simulator()
        busy, idle = QueueState(lambda: sim.now), QueueState(lambda: sim.now)
        idle.track(5)
        times = []
        logs = [queue.attach(times) for queue in (busy, idle)]
        expected = []
        changed = 0

        def tick():
            times.append(sim.now)
            expected.append((busy.total, busy.integral + busy.size * (
                sim.now - busy.time
            )))

        tick()
        for _ in range(10_000):
            sim.now += rng.randrange(0, 3)
            idle.track(0)  # a fold, like an exchange snapshot
            if rng.random() < 0.05:
                changes = 0
                for _ in range(rng.randrange(1, 4)):
                    nitems = rng.randrange(-busy.size, 3)
                    busy.track(nitems)
                    changes += nitems != 0
                changed += changes > 0
            tick()
        for log in logs:
            log.seal()
        assert len(logs[0]) <= changed + 1, f"seed {seed}"
        assert len(logs[1]) == 1, f"seed {seed}"
        assert list(logs[0].series()) == expected, f"seed {seed}"
        assert list(logs[1].series()) == [
            (0, 5 * time) for time in times
        ], f"seed {seed}"
        assert busy.time == idle.time == times[-1]  # folded by the seal


def test_row_before_a_queue_logged_change_raises():
    """Building a row at a time before the queue's last logged change
    raises the backwards-clock error TRACK raises."""
    sim = Simulator()
    client = _Endpoint(sim)
    collector = CounterCollector(sim, client, _Endpoint(sim), period_ns=1)
    clock = CounterClock(sim, [collector])
    clock.start()
    sim.now = 10
    client.qs_unread.track(2)  # changed at 10
    clock.sample()
    sim.now = 9  # a sample behind the change
    clock.sample()
    with pytest.raises(EstimationError, match="backwards: 10 -> 9"):
        collector.samples
    with pytest.raises(EstimationError, match="backwards: 10 -> 9"):
        collector.window_estimate(0, 10)


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_store_holds_machine_words_and_answers_python_ints():
    """Each sample instant costs the store at most 12 bytes and each
    logged change at most 40, with nanosecond instants and byte counts
    in a dense run's ranges (none an interpreter-cached small int); the
    samples and window estimates read from it are Python ints."""
    rng = random.Random(1)
    ticks = 10_000
    sim = Simulator()
    sim.now = 20_000_000  # the end of a 20 ms warm-up
    client = _Endpoint(sim)
    busy = client.qs_unacked
    busy.track(65_160)
    collector = CounterCollector(sim, client, _Endpoint(sim), period_ns=5_000)
    clock = CounterClock(sim, [collector])
    clock.start()

    def grown(change: bool) -> int:
        """Traced bytes the store gains over ``ticks`` ticks."""
        start = _traced()
        for _ in range(ticks):
            sim.now += 5_000
            if change:  # one logged change per tick interval
                busy.track(rng.randrange(1_448, 65_160))
                busy.track(-rng.randrange(1_448, busy.size - 1_000))
            clock.sample()
        return _traced() - start

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        idle = grown(change=False)
        changed = grown(change=True)
    finally:
        if not tracing:
            tracemalloc.stop()
    # Both stretches took as many samples; only the second logged.
    assert idle / ticks <= 12
    assert (changed - idle) / ticks <= 40

    clock.stop()
    samples = collector.samples
    assert len(samples) == 2 * ticks + 2
    ints = {
        type(value)
        for sample in samples
        for triple in (sample.client, sample.server)
        for snapshot in (triple.unacked, triple.unread, triple.ackdelay)
        for value in (sample.time, snapshot.time, snapshot.total,
                      snapshot.integral)
    }
    assert ints == {int}
    estimate = collector.window_estimate(samples[1].time, samples[-2].time)
    assert (type(estimate.start), type(estimate.end)) == (int, int)
    assert estimate == window_estimate(
        samples, samples[1].time, samples[-2].time
    )


def test_log_past_64_bits_turns_python_once_and_stays_exact():
    """A GiB queued at t ≈ 2⁴⁰ ns puts ``integral − size·time`` near
    −2⁷⁰.  Its log converts its states to Python ints once, keeping the
    entries logged before, leaves no partial entry, and answers ``at``,
    the series and the fold at ``stop()`` as twin queues snapshotted
    with Python ints do; logs that stay in range keep their array."""
    rng = random.Random(11)
    sim = Simulator()
    sim.now = 2**40
    client, server = _Endpoint(sim), _Endpoint(sim)
    twin_client, twin_server = _Endpoint(sim), _Endpoint(sim)
    collector = CounterCollector(sim, client, server, period_ns=1)
    clock = CounterClock(sim, [collector])
    expected = []

    def reference():
        expected.append(CounterSample(
            time=sim.now,
            client=_reference(twin_client),
            server=_reference(twin_server),
        ))

    clock.start()
    reference()
    big, twin_big = client.qs_unacked, twin_client.qs_unacked
    log = big._log  # the change log the clock attached
    small = server.qs_unread._log
    wide = None
    for tick in range(300):
        sim.now += rng.randrange(0, 5)
        _churn_twins(rng, client, twin_client)
        _churn_twins(rng, server, twin_server)
        if tick >= 100 and rng.random() < 0.5:  # past 64 bits from here
            nitems = rng.choice((2**30, -big.size))
            big.track(nitems)
            twin_big.track(nitems)
        assert len(log.states) == 3 * len(log)  # whole entries only
        if wide is None and not isinstance(log.states, array):
            wide = log.states
            assert len(log) > 1  # entries logged before are kept
        clock.sample()
        reference()
    assert wide is not None and log.states is wide  # converted once
    assert isinstance(small.states, array)
    assert collector.samples == expected
    queues = client.queues() + server.queues()
    for tick, sample in enumerate(expected):
        snapshots = [
            snapshot
            for triple in (sample.client, sample.server)
            for snapshot in (triple.unacked, triple.unread, triple.ackdelay)
        ]
        for queue, snapshot in zip(queues, snapshots):
            assert queue._log.at(tick, sample.time) == (
                snapshot.total, snapshot.integral
            ), f"tick {tick}"
    sim.now += 1
    _churn_twins(rng, client, twin_client)
    big.track(2**30)
    twin_big.track(2**30)
    clock.stop()
    reference()
    assert collector.samples == expected
    # The seal logged past 64 bits too, and folded like track(0).
    assert log.states is wide and len(wide) == 3 * len(log)
    for twin in (twin_client, twin_server):
        for queue in twin.queues():
            queue.track(0)
    assert _state(client) == _state(twin_client)
    assert _state(server) == _state(twin_server)
