"""Experiment drivers: one module per paper figure plus ablations.

Each driver returns a structured result object and can render itself as
text; the benchmark suite under ``benchmarks/`` invokes these and prints
the same rows/series the paper reports.  See DESIGN.md's per-experiment
index (E1-E5, A1-A6).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DecompositionResult": ".decomposition",
    "run_decomposition": ".decomposition",
    "FaninConfig": ".fanin",
    "FaninResult": ".fanin",
    "run_fanin": ".fanin",
    "ChaosPoint": ".faults",
    "ChaosResult": ".faults",
    "run_faults": ".faults",
    "Fig1Result": ".fig1",
    "run_fig1": ".fig1",
    "Fig2Result": ".fig2",
    "run_fig2": ".fig2",
    "Fig4aResult": ".fig4a",
    "run_fig4a": ".fig4a",
    "Fig4bResult": ".fig4b",
    "run_fig4b": ".fig4b",
    "TailResult": ".tail",
    "run_tail": ".tail",
    "PhasePlan": ".timevarying",
    "TimeVaryingResult": ".timevarying",
    "run_timevarying": ".timevarying",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
