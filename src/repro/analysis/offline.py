"""Offline end-to-end estimation from counter snapshots (paper §3.4).

Given two :class:`~repro.analysis.counters.CounterSample` instances
bracketing an interval, apply GETAVGS per queue and combine per §3.2
with the online estimator's :func:`~repro.core.estimator.combine`:

    L_client_view = d(unacked,client) − d(ackdelay,server)
                    + d(unread,client) + d(unread,server)
    L_server_view = the symmetric expression
    L = max(both views)                       (the paper's hedge)

The client view covers request-send → response-read as perceived at the
client; the server view the converse.  Throughput is λ of the client's
unacked queue (units acknowledged per second) — "trivial to measure"
per the paper, reported for completeness.  Where one batching policy
spans several connections, :func:`throughput_weighted` averages their
estimates, as §3.2 suggests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.counters import CounterSample
from repro.core.estimator import QueueDelays, combine, queue_delays
from repro.core.littles_law import get_avgs
from repro.core.qstate import QueueSnapshot, TripleSnapshot
from repro.errors import EstimationError
from repro.units import SEC


def _delay(prev: QueueSnapshot, cur: QueueSnapshot) -> float | None:
    # get_avgs: an exported counter dump whose counters run backwards
    # is an error in the dump, not a degraded sample.
    if cur.time <= prev.time:
        return None
    return get_avgs(prev, cur).latency_ns


def endpoint_delays(prev: TripleSnapshot, cur: TripleSnapshot) -> QueueDelays:
    """One endpoint's three queue delays between two counter samples."""
    return queue_delays(prev, cur, _delay)


@dataclass(frozen=True)
class OfflineEstimate:
    """End-to-end estimate for one snapshot interval."""

    start: int
    end: int
    client_view_ns: float | None
    server_view_ns: float | None
    latency_ns: float | None          # max of the views (paper §3.2)
    throughput_per_sec: float         # client unacked λ, units/s

    @property
    def defined(self) -> bool:
        """Whether any view produced an estimate."""
        return self.latency_ns is not None


def estimate_between(prev: CounterSample, cur: CounterSample) -> OfflineEstimate:
    """Combine one snapshot interval into an end-to-end estimate."""
    if cur.time <= prev.time:
        raise EstimationError(
            f"snapshots out of order: {prev.time} -> {cur.time}"
        )
    client = endpoint_delays(prev.client, cur.client)
    server = endpoint_delays(prev.server, cur.server)
    client_view, _ = combine(client, server)
    server_view, _ = combine(server, client)
    views = [v for v in (client_view, server_view) if v is not None]
    interval = cur.client.unacked.time - prev.client.unacked.time
    throughput = 0.0
    if interval > 0:
        throughput = (
            (cur.client.unacked.total - prev.client.unacked.total) * SEC / interval
        )
    return OfflineEstimate(
        start=prev.time,
        end=cur.time,
        client_view_ns=client_view,
        server_view_ns=server_view,
        latency_ns=max(views) if views else None,
        throughput_per_sec=throughput,
    )


def interval_series(samples: list[CounterSample]) -> list[OfflineEstimate]:
    """Per-interval estimates over a whole snapshot series."""
    return [
        estimate_between(prev, cur)
        for prev, cur in zip(samples, samples[1:])
    ]


def window_estimate(
    samples: list[CounterSample], start_ns: int, end_ns: int
) -> OfflineEstimate:
    """One estimate over [start, end]: first sample at/after start vs.
    last sample at/before end (the measurement-window aggregate)."""
    inside = [s for s in samples if start_ns <= s.time <= end_ns]
    if len(inside) < 2:
        raise EstimationError(
            f"need at least two samples in [{start_ns}, {end_ns}], "
            f"have {len(inside)}"
        )
    return estimate_between(inside[0], inside[-1])


def throughput_weighted(pairs) -> tuple[float, float] | None:
    """Average per-connection latencies weighted by throughput (§3.2).

    ``pairs`` yields ``(latency_ns, throughput)`` per connection, in
    connection order.  A pair whose latency is None, or whose throughput
    is None or not positive, is skipped: uniform averaging would let
    idle connections dilute the estimate.  Returns ``(weighted mean,
    total throughput)``, or None when no pair remains.
    """
    kept = [
        (latency, throughput) for latency, throughput in pairs
        if latency is not None and throughput is not None and throughput > 0
    ]
    if not kept:
        return None
    total = sum(throughput for _, throughput in kept)
    weighted = sum(latency * throughput for latency, throughput in kept)
    return weighted / total, total
