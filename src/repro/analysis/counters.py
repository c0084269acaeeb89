"""Periodic queue-state snapshots from both endpoints.

The simulated ethtool: one timer per simulation (a :class:`CounterClock`)
samples the three queue states of each connection's client and server
sockets (or of attached unit adapters) at a fixed period, producing the
time series the offline analysis consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.qstate import QueueSnapshot, TripleSnapshot
from repro.errors import EstimationError

_ROW_INTS = 12  # 2 endpoints x 3 queues x (total, integral)


@dataclass(frozen=True)
class CounterSample:
    """Both endpoints' counters at one sampling instant."""

    time: int
    client: TripleSnapshot
    server: TripleSnapshot


def _triple(time: int, row, offset: int) -> TripleSnapshot:
    return TripleSnapshot(
        unacked=QueueSnapshot(time, row[offset], row[offset + 1]),
        unread=QueueSnapshot(time, row[offset + 2], row[offset + 3]),
        ackdelay=QueueSnapshot(time, row[offset + 4], row[offset + 5]),
    )


class CounterCollector:
    """Both endpoints' counters, sampled by a :class:`CounterClock`.

    ``client_states`` / ``server_states`` are any objects exposing the
    three queue states — sockets (byte units) or
    :class:`~repro.core.semantic.MessageUnits` adapters — whose clock is
    ``sim.now``.  ``period_ns`` is the period the collector is sampled
    at: the period of the clock that samples it.

    Each sample is stored as flat integer columns, not objects: the
    sample time in ``_times`` and twelve ints in ``_rows`` — client then
    server, each ``(unacked, unread, ackdelay)`` of ``(total,
    integral)``.  A sample first folds every queue state forward to
    ``sim.now``, exactly as ``track(0)`` would, so every queue's time is
    the sample's and a row holds the same ints a :class:`CounterSample`
    would.  :meth:`window_estimate` and :attr:`sample_count` answer the
    summarize path from the columns; :attr:`samples` materializes
    :class:`CounterSample` objects on demand.
    """

    def __init__(self, sim, client_states, server_states, period_ns: int,
                 tracer=None):
        from repro.obs.tracer import NULL_TRACER

        if period_ns <= 0:
            raise EstimationError(f"period must be positive, got {period_ns}")
        self._sim = sim
        self._queues = tuple(
            queue
            for states in (client_states, server_states)
            for queue in (
                states.qs_unacked, states.qs_unread, states.qs_ackdelay
            )
        )
        self.period_ns = period_ns
        self._times: list[int] = []  # non-decreasing: sampled in event order
        self._rows: list[int] = []
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

        Materialized on first access and extended on later ones — a
        compatibility surface for offline analysis; the summarize path
        uses :meth:`window_estimate`/:attr:`sample_count` instead.
        """
        for index in range(len(self._samples), len(self._times)):
            self._samples.append(self._sample(index))
        return self._samples

    @property
    def sample_count(self) -> int:
        """Number of samples recorded, without materializing any."""
        return len(self._times)

    def window_estimate(self, start_ns: int, end_ns: int):
        """:func:`~repro.analysis.offline.window_estimate` over the
        recorded series.

        The time column is non-decreasing, so bisection selects exactly
        the samples the offline filter ``start <= t <= end`` keeps; only
        the two boundary samples are materialized.
        """
        from repro.analysis.offline import estimate_between

        lo = bisect_left(self._times, start_ns)
        hi = bisect_right(self._times, end_ns)
        if hi - lo < 2:
            raise EstimationError(
                f"need at least two samples in [{start_ns}, {end_ns}], "
                f"have {hi - lo}"
            )
        return estimate_between(self._sample(lo), self._sample(hi - 1))

    def sample_now(self) -> None:
        """Record one sample immediately.

        Each queue state is folded to ``sim.now`` in place with the
        arithmetic, mutation and backwards-clock error of
        :meth:`QueueState.track(0) <repro.core.qstate.QueueState.track>`,
        but without calling ``track`` or the queue's clock: a dense run
        samples six queues per connection every few microseconds.
        """
        now = self._sim.now
        self._times.append(now)
        row = self._rows
        for queue in self._queues:
            dt = now - queue.time
            if dt:
                if dt < 0:
                    raise EstimationError(
                        f"clock moved backwards: {queue.time} -> {now}"
                    )
                queue.time = now
                if queue.size:
                    queue.integral += queue.size * dt
            row += (queue.total, queue.integral)
        if self._tracer.enabled:
            self._emit(self._sample(len(self._times) - 1))

    def _sample(self, index: int) -> CounterSample:
        time = self._times[index]
        base = index * _ROW_INTS
        row = self._rows[base:base + _ROW_INTS]
        return CounterSample(
            time=time,
            client=_triple(time, row, 0),
            server=_triple(time, row, 6),
        )

    def _emit(self, sample: CounterSample) -> None:
        self._tracer.queue_sample(self._client_src, sample.client)
        self._tracer.queue_sample(self._server_src, sample.server)


class CounterClock:
    """The one periodic timer that samples a simulation's collectors.

    It ticks at the collectors' common period.  :meth:`start` it when
    measurement begins: it samples every collector at once and then at
    each tick, in the order given; :meth:`stop` takes one final sample
    of each.

    One timer reproduces one timer per collector exactly.  Collectors
    started together in one callback that schedules nothing else would
    hold consecutive sequence numbers at every tick instant, each
    rescheduling only itself, so nothing ever ran between them.  One
    timer in the first one's place reads every queue in the same state,
    writes the same rows and ``queue.sample`` records in the same order,
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
        self._timer = None

    def start(self) -> None:
        """Sample every collector now and begin periodic sampling."""
        self._tick()

    def stop(self) -> None:
        """Stop sampling (takes one final sample of every collector)."""
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
        for collector in self._collectors:
            collector.sample_now()

    def _tick(self) -> None:
        for collector in self._collectors:
            collector.sample_now()
        self._timer = self._sim.call_after(self.period_ns, self._tick)
