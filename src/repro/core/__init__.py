"""The paper's primary contribution.

This package implements §3 of *Batching with End-to-End Performance
Estimation* (HotOS'25):

- :mod:`~repro.core.qstate` — the 4-tuple queue state and the ``TRACK``
  update procedure (Algorithm 1), and ``TripleSnapshot``, the one record
  of an endpoint's three ``(time, total, integral)`` snapshots.
- :mod:`~repro.core.littles_law` — ``GETAVGS`` (Algorithm 2): average
  occupancy, throughput and queuing delay between two snapshots.
- :mod:`~repro.core.estimator` — combining the three TCP queue delays
  (unacked, unread, ackdelay) into an end-to-end latency estimate (§3.2);
  ``combine`` is the sum the online estimator, the offline analysis and
  the A11 decomposition share.
- :mod:`~repro.core.exchange` — the peer metadata exchange: 36-byte
  payloads of three 3-tuples, wrap-safe 32-bit wire counters (§3.2, §5).
- :mod:`~repro.core.hints` — the cooperative-application ``create``/
  ``complete`` hint API (§3.3).
- :mod:`~repro.core.semantic` — message-unit adapters (bytes, packets,
  syscalls, hints) bridging the kernel/application semantic gap (§3.3).
- :mod:`~repro.core.ewma`, :mod:`~repro.core.policy`,
  :mod:`~repro.core.toggler`, :mod:`~repro.core.aimd` — smoothing,
  throughput/latency trade-off policies, the ε-greedy dynamic batching
  toggler, and the AIMD batch-limit controller (§5).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AimdBatchLimiter": ".aimd",
    "E2EEstimator": ".estimator",
    "EstimateSample": ".estimator",
    "QueueDelays": ".estimator",
    "Ewma": ".ewma",
    "MetadataExchange": ".exchange",
    "WirePeerState": ".exchange",
    "WireQueueState": ".exchange",
    "HintSession": ".hints",
    "QueueAverages": ".littles_law",
    "get_avgs": ".littles_law",
    "try_get_avgs": ".littles_law",
    "BatchingPolicy": ".policy",
    "LatencyFirstPolicy": ".policy",
    "PerfSample": ".policy",
    "ThroughputUnderSloPolicy": ".policy",
    "QueueSnapshot": ".qstate",
    "QueueState": ".qstate",
    "TripleSnapshot": ".qstate",
    "ByteUnits": ".semantic",
    "HintUnits": ".semantic",
    "MessageUnits": ".semantic",
    "PacketUnits": ".semantic",
    "SyscallUnits": ".semantic",
    "NagleToggler": ".toggler",
    "TogglerConfig": ".toggler",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
