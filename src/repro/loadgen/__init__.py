"""Load generation and measurement (the paper's Lancet role).

- :mod:`~repro.loadgen.arrivals` — open-loop arrival schedules (Poisson,
  uniform) and the workload specification (SET/GET mix, sizes).
- :mod:`~repro.loadgen.stats` — latency summaries (mean, percentiles)
  over the measurement window.
- :mod:`~repro.loadgen.lancet` — the single-run benchmark harness: build
  the two-host testbed, apply a load, measure latency, CPU utilization,
  and end-to-end estimates.
- :mod:`~repro.loadgen.sweep` — load sweeps across rates and batching
  configurations (the Figure 4 x-axis).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Workload": ".arrivals",
    "poisson_schedule": ".arrivals",
    "uniform_schedule": ".arrivals",
    "BenchConfig": ".lancet",
    "RunResult": ".lancet",
    "run_benchmark": ".lancet",
    "LatencySummary": ".stats",
    "summarize": ".stats",
    "SweepPoint": ".sweep",
    "sweep_rates": ".sweep",
    "TraceEntry": ".trace",
    "load_trace": ".trace",
    "record_schedule": ".trace",
    "save_trace": ".trace",
    "trace_schedule": ".trace",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
