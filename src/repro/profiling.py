"""cProfile harness for benchmark runs: the ``repro-profile-v1`` schema.

``repro profile`` answers "where do the cycles go?" for the two
end-to-end bench regimes (see ``benchmarks/e2e_shapes.py``): it runs one
benchmark under :mod:`cProfile` and emits a JSON document ranking
functions by cumulative time.  The document is what guided this
codebase's hot-path pass (docs/PERFORMANCE.md), and CI validates it
against :data:`DOCUMENT` so the profiling tooling cannot silently rot.

Times are profiler-overhead-inclusive seconds; use them for *ranking*,
and ``benchmarks/e2e_shapes.py`` (no profiler) for absolute events/sec
numbers.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import replace

from repro._fields import check_fields
from repro.errors import WorkloadError
from repro.units import msecs

PROFILE_SCHEMA = "repro-profile-v1"

#: The document layout, one field table per JSON object kind, in render
#: order, as :mod:`repro._fields` reads them.
DOCUMENT: dict[str, dict] = {
    "profile": {
        "doc": "Top-level document emitted by ``repro profile``.",
        "fields": {
            "schema": (str, f"schema version; always {PROFILE_SCHEMA!r}"),
            "shape": (str, "the profiled shape, e.g. 'fig2'"),
            "events_executed": (int, "simulator events the run executed"),
            "wall_seconds": ((int, float), "profiled run time, seconds"),
            "events_per_sec": (
                (int, float, type(None)),
                "events_executed / wall_seconds; null when no time passed",
            ),
            "top": (list, "at most ``--top`` rows, ``cumtime`` descending"),
        },
    },
    "row": {
        "doc": "One profiled function.",
        "fields": {
            "function": (str, "where it is defined: 'file:name:lineno'"),
            "ncalls": (int, "calls, recursive ones included"),
            "tottime": ((int, float), "seconds in the function itself"),
            "cumtime": ((int, float), "seconds including its callees"),
        },
    },
}

#: The profileable shapes, mirroring benchmarks/e2e_shapes.py (defined
#: here so the installed CLI does not depend on the benchmarks tree).
SHAPES = ("fig2", "faults")


def shape_config(shape: str, measure_ms: int = 80, seed: int | None = None):
    """The :class:`~repro.loadgen.lancet.BenchConfig` for one shape."""
    from repro.loadgen.lancet import BenchConfig

    if shape == "fig2":
        from repro.experiments.fig2 import fig2_config

        return replace(
            fig2_config(
                vm=True, nagle=True, seed=seed if seed is not None else 1,
                measure_ns=msecs(measure_ms),
            ),
            warmup_ns=msecs(20),
        )
    if shape == "faults":
        from repro.faults import named_plan

        return BenchConfig(
            rate_per_sec=15_000.0,
            fault_plan=named_plan("mixed"),
            min_rto_ns=msecs(5),
            warmup_ns=msecs(20),
            measure_ns=msecs(measure_ms),
            seed=seed if seed is not None else 3,
        )
    raise WorkloadError(f"unknown profile shape {shape!r}; pick from {SHAPES}")


def profile_run(config, shape: str = "custom", top_n: int = 25) -> dict:
    """Run one benchmark under cProfile; return a repro-profile-v1 dict."""
    from repro.loadgen.lancet import run_benchmark

    if top_n <= 0:
        raise WorkloadError(f"top_n must be positive, got {top_n}")
    holder: dict = {}

    def tweak(bed) -> None:
        holder["bed"] = bed

    profiler = cProfile.Profile()
    profiler.enable()
    run_benchmark(config, tweak=tweak)
    profiler.disable()

    stats = pstats.Stats(profiler)
    wall = stats.total_tt
    events = holder["bed"].sim.events_executed
    rows = []
    for (filename, lineno, name), (
        _primitive, ncalls, tottime, cumtime, _callers
    ) in stats.stats.items():
        rows.append({
            "function": f"{filename}:{name}:{lineno}",
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    rows.sort(key=lambda row: (-row["cumtime"], row["function"]))
    return {
        "schema": PROFILE_SCHEMA,
        "shape": shape,
        "events_executed": events,
        "wall_seconds": round(wall, 6),
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "top": rows[:top_n],
    }


def validate_profile(document) -> list[str]:
    """Schema problems in a repro-profile-v1 dict ([] = valid)."""
    problems = check_fields(document, DOCUMENT["profile"]["fields"], "profile")
    if not isinstance(document, dict):
        return problems
    if document.get("schema", PROFILE_SCHEMA) != PROFILE_SCHEMA:
        problems.append(
            f"profile: schema must be {PROFILE_SCHEMA!r}, "
            f"got {document['schema']!r}"
        )
    rows = document.get("top")
    if not isinstance(rows, list):
        return problems
    previous = None
    for position, row in enumerate(rows):
        where = f"top[{position}]"
        row_problems = check_fields(row, DOCUMENT["row"]["fields"], where)
        problems += row_problems
        if row_problems:
            continue
        if previous is not None and row["cumtime"] > previous + 1e-9:
            problems.append(f"{where}: breaks the cumtime descending order")
        previous = row["cumtime"]
    return problems
