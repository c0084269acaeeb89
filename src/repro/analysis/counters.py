"""Periodic queue-state snapshots from both endpoints.

The simulated ethtool: a timer samples the three queue states of the
client and server sockets (or of attached unit adapters) at a fixed
period, producing a time series the offline analysis consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.qstate import QueueSnapshot
from repro.errors import EstimationError

_ROW_INTS = 18  # 2 endpoints x 3 queues x (time, total, integral)


@dataclass(frozen=True)
class TripleSnapshot:
    """One endpoint's three queue snapshots, taken together."""

    unacked: QueueSnapshot
    unread: QueueSnapshot
    ackdelay: QueueSnapshot

    @classmethod
    def capture(cls, states) -> "TripleSnapshot":
        """Snapshot an object exposing qs_unacked/qs_unread/qs_ackdelay."""
        return cls(
            unacked=states.qs_unacked.snapshot(),
            unread=states.qs_unread.snapshot(),
            ackdelay=states.qs_ackdelay.snapshot(),
        )


@dataclass(frozen=True)
class CounterSample:
    """Both endpoints' counters at one sampling instant."""

    time: int
    client: TripleSnapshot
    server: TripleSnapshot


def _triple(row, offset: int) -> TripleSnapshot:
    return TripleSnapshot(
        unacked=QueueSnapshot(*row[offset:offset + 3]),
        unread=QueueSnapshot(*row[offset + 3:offset + 6]),
        ackdelay=QueueSnapshot(*row[offset + 6:offset + 9]),
    )


class CounterCollector:
    """Samples both endpoints at a fixed period.

    ``client_states`` / ``server_states`` are any objects exposing the
    three queue states — sockets (byte units) or
    :class:`~repro.core.semantic.MessageUnits` adapters.

    Each tick is stored as flat integer columns, not objects: the
    sample time in ``_times`` and eighteen ints in ``_rows`` —
    client then server, each ``(unacked, unread, ackdelay)`` of
    ``(time, total, integral)``.  Every queue state is brought forward
    with a ``track(0)`` first, exactly as
    :meth:`~repro.core.qstate.QueueState.snapshot` does, so a row holds
    the same ints a :class:`CounterSample` would.  :meth:`window_estimate`
    and :attr:`sample_count` answer the summarize path from the columns;
    :attr:`samples` materializes :class:`CounterSample` objects on demand.
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
        self._timer = None
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

    def start(self) -> None:
        """Take an immediate sample and begin periodic sampling."""
        self.sample_now()
        self._timer = self._sim.call_after(self.period_ns, self._tick)

    def stop(self) -> None:
        """Stop sampling (takes one final sample)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.sample_now()

    def sample_now(self) -> None:
        """Record one sample immediately."""
        self._times.append(self._sim.now)
        row = self._rows
        for queue in self._queues:
            queue.track(0)
            row += (queue.time, queue.total, queue.integral)
        if self._tracer.enabled:
            self._emit(self._sample(len(self._times) - 1))

    def _sample(self, index: int) -> CounterSample:
        base = index * _ROW_INTS
        row = self._rows[base:base + _ROW_INTS]
        return CounterSample(
            time=self._times[index],
            client=_triple(row, 0),
            server=_triple(row, 9),
        )

    def _emit(self, sample: CounterSample) -> None:
        tracer = self._tracer
        for src, triple in (
            (self._client_src, sample.client),
            (self._server_src, sample.server),
        ):
            tracer.queue_sample(
                src, triple.unacked, triple.unread, triple.ackdelay
            )

    def _tick(self) -> None:
        self.sample_now()
        self._timer = self._sim.call_after(self.period_ns, self._tick)
