"""Periodic queue-state snapshots from both endpoints.

The simulated ethtool: one timer per simulation (a :class:`CounterClock`)
samples the three queue states of each connection's client and server
sockets (or of attached unit adapters) at a fixed period, producing the
time series the offline analysis consumes.

A tick only records its instant: while the clock runs, each sampled
queue logs its own changes (:class:`repro.core.qstate.ChangeLog`), and
rows are built from the logs when read.  Each row holds the ints a
``QueueState.snapshot()`` of every queue at the tick would have given.
Memory grows with changes, not with ticks: the instants are one int64
array, 8 bytes a tick (about 40 as a list of boxed ints), and each
logged change costs its queue's log about 33 bytes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.qstate import QueueSnapshot, TripleSnapshot
from repro.errors import EstimationError


@dataclass(frozen=True)
class CounterSample:
    """Both endpoints' counters at one sampling instant."""

    time: int
    client: TripleSnapshot
    server: TripleSnapshot


def _sample(time: int, values) -> CounterSample:
    """A sample from six ``(total, integral)`` pairs: client then server,
    each ``(unacked, unread, ackdelay)``."""
    a, b, c, d, e, f = values
    return CounterSample(
        time=time,
        client=TripleSnapshot(
            unacked=QueueSnapshot(time, *a),
            unread=QueueSnapshot(time, *b),
            ackdelay=QueueSnapshot(time, *c),
        ),
        server=TripleSnapshot(
            unacked=QueueSnapshot(time, *d),
            unread=QueueSnapshot(time, *e),
            ackdelay=QueueSnapshot(time, *f),
        ),
    )


class CounterCollector:
    """Both endpoints' counters, sampled by a :class:`CounterClock`.

    ``client_states`` / ``server_states`` are any objects exposing the
    three queue states — sockets (byte units) or
    :class:`~repro.core.semantic.MessageUnits` adapters — whose clock is
    ``sim.now``.  ``period_ns`` is the period the collector is sampled
    at: the period of the clock that samples it.

    The collector stores no rows.  Its samples are the clock's ticks,
    and the values come from its six queues' change logs, attached when
    the clock starts: :meth:`window_estimate` and :attr:`sample_count`
    answer the summarize path, and :attr:`samples` materializes
    :class:`CounterSample` objects on demand.
    """

    def __init__(self, sim, client_states, server_states, period_ns: int,
                 tracer=None):
        from repro.obs.tracer import NULL_TRACER

        if period_ns <= 0:
            raise EstimationError(f"period must be positive, got {period_ns}")
        self._queues = tuple(
            queue
            for states in (client_states, server_states)
            for queue in (
                states.qs_unacked, states.qs_unread, states.qs_ackdelay
            )
        )
        self.period_ns = period_ns
        self._instants = array("q")  # the sampling clock's, shared
        self._logs = ()  # the queues' change logs, once a clock starts
        self._samples: list[CounterSample] = []  # materialized prefix
        # Observability: each sample is also emitted as two
        # ``queue.sample`` trace records (one per endpoint), named after
        # the sampled sockets where they carry names.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._client_src = getattr(client_states, "name", "client")
        self._server_src = getattr(server_states, "name", "server")

    @property
    def samples(self) -> list[CounterSample]:
        """The recorded series as :class:`CounterSample` objects.

        Materialized on first access and extended on later ones, in one
        forward pass over each queue's log — a compatibility surface for
        offline analysis; the summarize path uses
        :meth:`window_estimate`/:attr:`sample_count` instead.
        """
        done = len(self._samples)
        times = self._instants[done:]
        if times:
            rows = zip(*(log.series(done) for log in self._logs))
            self._samples.extend(map(_sample, times, rows))
        return self._samples

    @property
    def sample_count(self) -> int:
        """Number of samples recorded, without materializing any."""
        return len(self._instants)

    def window_estimate(self, start_ns: int, end_ns: int):
        """:func:`~repro.analysis.offline.window_estimate` over the
        recorded series.

        The sample instants are non-decreasing, so bisection selects
        exactly the samples the offline filter ``start <= t <= end``
        keeps; only the two boundary samples are built.
        """
        from repro.analysis.offline import estimate_between

        lo = bisect_left(self._instants, start_ns)
        hi = bisect_right(self._instants, end_ns)
        if hi - lo < 2:
            raise EstimationError(
                f"need at least two samples in [{start_ns}, {end_ns}], "
                f"have {hi - lo}"
            )
        return estimate_between(self._row(lo), self._row(hi - 1))

    def _attach(self, times: array) -> None:
        """Log every queue's changes against the clock's ``times``."""
        self._instants = times
        self._logs = []
        for queue in self._queues:
            self._logs.append(queue.attach(times))

    def _seal(self) -> None:
        for log in self._logs:
            log.seal()

    def _row(self, tick: int) -> CounterSample:
        time = self._instants[tick]
        return _sample(time, [log.at(tick, time) for log in self._logs])

    def _emit(self, tick: int) -> None:
        sample = self._row(tick)
        self._tracer.queue_sample(self._client_src, sample.client)
        self._tracer.queue_sample(self._server_src, sample.server)


class CounterClock:
    """The one periodic timer that samples a simulation's collectors.

    It ticks at the collectors' common period.  :meth:`start` it when
    measurement begins: it attaches every collector's queues, samples
    them all at once and then at each tick; :meth:`stop` takes one
    final sample and seals the logs.  A clock runs once.

    A tick (:meth:`sample`) appends ``sim.now`` to the sample instants,
    an int64 array (simulated time stays below 2⁶³ ns, see
    :mod:`repro.units`), and, with a tracer attached, emits each
    collector's records in the order given; it reads no queue.  Ticks
    stay real kernel events: the kernel's sequence numbers decide ties
    at tick instants, so every other event keeps its place and the
    event counts do not change.

    One timer reproduces one timer per collector exactly.  Collectors
    started together in one callback that schedules nothing else would
    hold consecutive sequence numbers at every tick instant, each
    rescheduling only itself, so nothing ever ran between them.  One
    timer in the first one's place sees every queue in the same state,
    yields the same rows and ``queue.sample`` records in the same order,
    and leaves every other event's relative order unchanged.
    """

    def __init__(self, sim, collectors):
        self._collectors = tuple(collectors)
        periods = {collector.period_ns for collector in self._collectors}
        if len(periods) != 1:
            raise EstimationError(
                "a clock samples collectors of one period, got "
                f"{sorted(periods)}"
            )
        self._sim = sim
        (self.period_ns,) = periods
        self._times = array("q")  # one instant per sample taken
        self._traced = ()
        self._timer = None

    def start(self) -> None:
        """Attach the collectors, sample them now and begin periodic
        sampling."""
        if self._times:
            raise EstimationError("a counter clock runs once")
        try:
            for collector in self._collectors:
                collector._attach(self._times)
        except EstimationError:
            for collector in self._collectors:
                collector._seal()  # release the queues attached so far
            raise
        self._traced = tuple(
            collector for collector in self._collectors
            if collector._tracer.enabled
        )
        self._tick()

    def stop(self) -> None:
        """Stop sampling: take one final sample of every collector, seal
        the queues' logs at it and fold each queue to it in place."""
        if self._timer is None:
            return
        self._sim.cancel(self._timer)
        self._timer = None
        self.sample()
        for collector in self._collectors:
            collector._seal()

    def sample(self) -> None:
        """Take one sample of every collector now (the tick's body)."""
        times = self._times
        times.append(self._sim.now)
        for collector in self._traced:
            collector._emit(len(times) - 1)

    def _tick(self) -> None:
        self.sample()
        self._timer = self._sim.call_after(self.period_ns, self._tick)
