"""Offline counter analysis — the paper's prototype methodology (§3.4).

The paper's prototype exports queue states as ethtool counters from both
machines and analyses them offline.  This package mirrors that:

- :mod:`~repro.analysis.counters` — periodic snapshots of both
  endpoints' three queue states during a run, one
  :class:`~repro.core.qstate.TripleSnapshot` per endpoint per sample;
- :mod:`~repro.analysis.offline` — GETAVGS over snapshot intervals and
  the §3.2 combination into end-to-end estimates, through the online
  estimator's :func:`~repro.core.estimator.combine`;
- :mod:`~repro.analysis.cutoff` — Figure 4 curve analytics: SLO-
  sustainable load, batching cutoff points, extension/improvement
  factors (the paper's 1.93× and 2.80× headlines);
- :mod:`~repro.analysis.report` — plain-text tables for the benchmark
  harness output.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CounterCollector": ".counters",
    "CounterSample": ".counters",
    "TripleSnapshot": "..core.qstate",
    "CurvePoint": ".cutoff",
    "crossover_rate": ".cutoff",
    "improvement_at": ".cutoff",
    "max_sustainable_rate": ".cutoff",
    "range_extension": ".cutoff",
    "OfflineEstimate": ".offline",
    "estimate_between": ".offline",
    "interval_series": ".offline",
    "window_estimate": ".offline",
    "ascii_plot": ".plot",
    "curve_points": ".plot",
    "format_table": ".report",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
