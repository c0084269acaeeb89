"""repro — Batching with End-to-End Performance Estimation (HotOS'25).

A full reproduction of the paper's system on a from-scratch simulated
TCP/IP stack:

- :mod:`repro.core` — the contribution: Little's-law queue states
  (TRACK/GETAVGS), the three-queue end-to-end estimator, the metadata
  exchange, the hints API, and dynamic batching control (ε-greedy
  toggling, AIMD batch limits).
- :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.host`,
  :mod:`repro.tcp` — the substrates: discrete-event engine, links/NICs
  (TSO, GRO, doorbell batching), CPU cores with utilization accounting,
  and a TCP stack with Nagle, delayed acks and auto-corking.
- :mod:`repro.apps`, :mod:`repro.loadgen` — the Redis-like key-value
  store and the Lancet-like load generator used by the evaluation.
- :mod:`repro.analysis`, :mod:`repro.analytic`,
  :mod:`repro.experiments` — offline counter analysis, the Figure 1
  closed-form model, and one driver per paper figure.

Quickstart::

    from repro import QueueState, get_avgs

    clock = lambda: now_ns
    qs = QueueState(clock)
    qs.track(+3)          # three requests arrived
    ...
    qs.track(-3)          # three departed
    avgs = get_avgs(snap_earlier, qs.snapshot())
    print(avgs.latency_ns, avgs.throughput_per_sec)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "AimdBatchLimiter": ".core.aimd",
    "E2EEstimator": ".core.estimator",
    "EstimateSample": ".core.estimator",
    "Ewma": ".core.ewma",
    "HintSession": ".core.hints",
    "LatencyFirstPolicy": ".core.policy",
    "MetadataExchange": ".core.exchange",
    "NagleToggler": ".core.toggler",
    "PerfSample": ".core.policy",
    "QueueAverages": ".core.littles_law",
    "QueueSnapshot": ".core.qstate",
    "QueueState": ".core.qstate",
    "ThroughputUnderSloPolicy": ".core.policy",
    "TogglerConfig": ".core.toggler",
    "get_avgs": ".core.littles_law",
    "try_get_avgs": ".core.littles_law",
    "Simulator": ".sim.loop",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
