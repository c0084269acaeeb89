"""Offline end-to-end estimation from counter snapshots (paper §3.4).

Given two :class:`~repro.analysis.counters.CounterSample` instances
bracketing an interval, apply GETAVGS per queue and combine per §3.2:

    L_client_view = d(unacked,client) − d(ackdelay,server)
                    + d(unread,server) + d(unread,client)
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

from repro.analysis.counters import CounterSample, TripleSnapshot
from repro.core.littles_law import get_avgs
from repro.core.qstate import QueueSnapshot
from repro.errors import EstimationError
from repro.units import SEC


def _delay(prev: QueueSnapshot, cur: QueueSnapshot) -> float | None:
    if cur.time <= prev.time:
        return None
    return get_avgs(prev, cur).latency_ns


def _view(
    local_prev: TripleSnapshot,
    local_cur: TripleSnapshot,
    remote_prev: TripleSnapshot,
    remote_cur: TripleSnapshot,
) -> float | None:
    unacked = _delay(local_prev.unacked, local_cur.unacked)
    local_unread = _delay(local_prev.unread, local_cur.unread)
    remote_unread = _delay(remote_prev.unread, remote_cur.unread)
    if unacked is None or local_unread is None or remote_unread is None:
        return None
    ackdelay = _delay(remote_prev.ackdelay, remote_cur.ackdelay) or 0.0
    return unacked - ackdelay + local_unread + remote_unread


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
    client_view = _view(prev.client, cur.client, prev.server, cur.server)
    server_view = _view(prev.server, cur.server, prev.client, cur.client)
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
