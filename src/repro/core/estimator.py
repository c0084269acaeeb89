"""End-to-end latency estimation from three queue delays (paper §3.2).

The estimate combines the queuing delays of the three monitored queues:

    L ≈ L_unacked^local − L_ackdelay^remote + L_unread^local + L_unread^remote

where *local* is the endpoint whose perspective we take.  The intuition
(paper Figure 3): the local unacked delay spans "send until ack returns";
subtracting the remote's deliberate ack delay and adding both sides'
unread (receive-buffer) delays recovers the request+response journey.

Remote delays come either from the metadata exchange (wire mode — what a
deployment would use) or by directly snapshotting the peer's queue
states (oracle mode — what the paper's offline ethtool-based prototype
effectively does).  Both sides can compute an estimate; the paper uses
the maximum of the two to hedge against underestimation, implemented
here by :func:`combine_estimates`.

:func:`combine` is the one implementation of the sum, which the online
estimator, the offline analysis and the A11 decomposition all call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.littles_law import try_get_avgs
from repro.core.qstate import QueueSnapshot, TripleSnapshot
from repro.errors import EstimationError
from repro.units import SEC


@dataclass(frozen=True)
class QueueDelays:
    """Per-queue average delays (ns) over an interval; None = no
    departures observed, so Little's law yields no estimate."""

    unacked: float | None
    unread: float | None
    ackdelay: float | None


@dataclass(frozen=True)
class EstimateSample:
    """One end-to-end estimate.

    ``latency_ns`` is None when a *required* component (local unacked,
    local or remote unread) was undefined.  An undefined remote ackdelay
    only means no acks were delayed — it contributes zero.  ``complete``
    records whether every component was defined.  ``throughput_per_sec``
    is λ of the local unacked queue: units acknowledged per second.
    """

    latency_ns: float | None
    throughput_per_sec: float
    local: QueueDelays
    remote: QueueDelays | None
    interval_ns: int
    complete: bool

    @property
    def defined(self) -> bool:
        """Whether a latency estimate exists."""
        return self.latency_ns is not None


def _delay(prev: QueueSnapshot, now: QueueSnapshot) -> float | None:
    # try_get_avgs: a stale or corrupted snapshot pair degrades to "no
    # estimate for this queue" instead of raising mid-sample.
    avgs = try_get_avgs(prev, now)
    return None if avgs is None else avgs.latency_ns


def queue_delays(
    prev: TripleSnapshot, now: TripleSnapshot, delay=_delay
) -> QueueDelays:
    """One endpoint's three queue delays between two triples; ``delay``
    gives one queue's GETAVGS latency or None (by default gracefully)."""
    return QueueDelays(
        unacked=delay(prev.unacked, now.unacked),
        unread=delay(prev.unread, now.unread),
        ackdelay=delay(prev.ackdelay, now.ackdelay),
    )


def combine(
    local: QueueDelays, remote: QueueDelays | None
) -> tuple[float | None, bool]:
    """The §3.2 sum from ``local``'s view: ``(latency_ns, complete)``.

    The local unacked and both unread delays are required.  An undefined
    remote ackdelay (no ack was delayed) adds 0 and marks the sum incomplete.
    """
    if (local.unacked is None or local.unread is None or remote is None
            or remote.unread is None):
        return None, False
    ackdelay = remote.ackdelay if remote.ackdelay is not None else 0.0
    latency = local.unacked - ackdelay + local.unread + remote.unread
    return latency, remote.ackdelay is not None


class E2EEstimator:
    """Computes local-view end-to-end estimates for one endpoint.

    ``local`` is any object exposing ``qs_unacked`` / ``qs_unread`` /
    ``qs_ackdelay`` queue states — a socket (byte units) or a
    :class:`repro.core.semantic.MessageUnits` adapter.  Exactly one of
    ``remote`` (oracle mode: the peer's same-shaped object) or
    ``exchange`` (wire mode: this endpoint's metadata exchange) must be
    given.

    Graceful degradation (wire mode is a network consumer, so it must
    tolerate a misbehaving network):

    - ``max_staleness_ns`` — when set, a remote view whose freshest
      accepted exchange is older than this is discarded for the sample
      (counted in :attr:`stale_rejections`) rather than trusted.
    - non-monotonic remote intervals (a rebaselined or corrupt pair)
      yield no remote view and count in :attr:`nonmonotonic_rejections`.
    - the combined latency is clamped at zero (a corrupt remote ackdelay
      can otherwise push it negative; :attr:`negative_clamps`) and, when
      ``max_latency_ns`` is set, at that ceiling
      (:attr:`absurd_clamps`).

    ``tracer`` (a :class:`repro.obs.Tracer`) records every sample as an
    ``estimator.sample`` trace record — all four §3.2 inputs, the
    combined output, and any clamp applied — and every discarded remote
    view as ``estimator.reject``; ``name`` overrides the record ``src``
    (default: the local socket's name).
    """

    def __init__(
        self,
        local,
        remote=None,
        exchange=None,
        max_staleness_ns: int | None = None,
        max_latency_ns: float | None = None,
        tracer=None,
        name: str | None = None,
    ):
        from repro.obs.tracer import NULL_TRACER

        if (remote is None) == (exchange is None):
            raise EstimationError("provide exactly one of remote= or exchange=")
        if max_staleness_ns is not None and max_staleness_ns <= 0:
            raise EstimationError(
                f"max staleness must be positive: {max_staleness_ns}"
            )
        if max_latency_ns is not None and max_latency_ns <= 0:
            raise EstimationError(
                f"max latency must be positive: {max_latency_ns}"
            )
        self._local = local
        self._remote = remote
        self._exchange = exchange
        self._max_staleness_ns = max_staleness_ns
        self._max_latency_ns = max_latency_ns
        self._prev_local: TripleSnapshot | None = None
        self._prev_remote: TripleSnapshot | None = None
        self.stale_rejections = 0
        self.nonmonotonic_rejections = 0
        self.negative_clamps = 0
        self.absurd_clamps = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_src = name or getattr(local, "name", "estimator")

    def sample(self) -> EstimateSample | None:
        """Estimate over the interval since the previous call.

        The first call establishes baselines and returns None.
        """
        local_now = TripleSnapshot.capture(self._local)
        prev_local, self._prev_local = self._prev_local, local_now
        remote_interval = self._remote_interval()
        if prev_local is None:
            return None
        if local_now.unacked.time <= prev_local.unacked.time:
            return None

        d_local = queue_delays(prev_local, local_now)
        d_remote = (
            None if remote_interval is None else queue_delays(*remote_interval)
        )

        interval = local_now.unacked.time - prev_local.unacked.time
        throughput = (
            (local_now.unacked.total - prev_local.unacked.total) * SEC / interval
        )

        latency, complete = combine(d_local, d_remote)
        clamped = None
        if latency is not None:
            if latency < 0:
                # A corrupt or unlucky remote ackdelay exceeded the whole
                # round trip; a negative latency is never meaningful.
                self.negative_clamps += 1
                latency = 0.0
                clamped = "negative"
            elif (
                self._max_latency_ns is not None
                and latency > self._max_latency_ns
            ):
                self.absurd_clamps += 1
                latency = self._max_latency_ns
                clamped = "absurd"
        sample = EstimateSample(
            latency_ns=latency,
            throughput_per_sec=throughput,
            local=d_local,
            remote=d_remote,
            interval_ns=interval,
            complete=complete,
        )
        if self._tracer.enabled:
            self._tracer.estimator_sample(self._trace_src, sample, clamped)
        return sample

    def _remote_interval(self):
        if self._remote is not None:
            remote_now = TripleSnapshot.capture(self._remote)
            prev_remote, self._prev_remote = self._prev_remote, remote_now
            if prev_remote is None:
                return None
            return prev_remote, remote_now
        prev = self._exchange.remote_prev
        cur = self._exchange.remote_cur
        if prev is None or cur is None or cur.unacked.time <= prev.unacked.time:
            return None
        if not self._monotone(prev, cur):
            self.nonmonotonic_rejections += 1
            if self._tracer.enabled:
                self._tracer.estimator_reject(self._trace_src, "nonmonotonic")
            return None
        if self._max_staleness_ns is not None:
            age = self._exchange.staleness_ns()
            if age is None or age > self._max_staleness_ns:
                # The freshest accepted exchange predates the staleness
                # budget: the remote view describes a network that no
                # longer exists (blackout, exchange drops), so fall back
                # to a local-only (undefined) sample.
                self.stale_rejections += 1
                if self._tracer.enabled:
                    self._tracer.estimator_reject(
                        self._trace_src, "stale", staleness_ns=age
                    )
                return None
        return prev, cur

    @staticmethod
    def _monotone(prev, cur) -> bool:
        for queue in ("unacked", "unread", "ackdelay"):
            earlier = getattr(prev, queue)
            later = getattr(cur, queue)
            if (
                later.time < earlier.time
                or later.total < earlier.total
                or later.integral < earlier.integral
            ):
                return False
        return True


def combine_estimates(
    a: EstimateSample | None, b: EstimateSample | None
) -> float | None:
    """The paper's two-sided hedge: max of both endpoints' estimates."""
    candidates = [s.latency_ns for s in (a, b) if s is not None and s.defined]
    if not candidates:
        return None
    return max(candidates)
