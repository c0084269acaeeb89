"""cProfile harness for benchmark runs: the ``repro-profile-v1`` schema.

``repro profile`` answers "where do the cycles go?" for the two
end-to-end bench regimes (see ``benchmarks/e2e_shapes.py``): it runs one
benchmark under :mod:`cProfile` and emits a JSON document ranking
functions by cumulative time.  The document is what guided this
codebase's hot-path pass (docs/PERFORMANCE.md), and CI validates its
schema so the profiling tooling cannot silently rot.

Document layout::

    {"schema": "repro-profile-v1",
     "shape": "fig2",
     "events_executed": N, "wall_seconds": S, "events_per_sec": R,
     "top": [{"function": "module:name:lineno",
              "ncalls": n, "tottime": t, "cumtime": c}, ...]}

``top`` is sorted by ``cumtime`` descending and capped at the requested
N.  Times are profiler-overhead-inclusive seconds; use them for
*ranking*, and ``benchmarks/e2e_shapes.py`` (no profiler) for absolute
events/sec numbers.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import replace

from repro.errors import WorkloadError
from repro.units import msecs

PROFILE_SCHEMA = "repro-profile-v1"

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
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"profile document must be an object, got {type(document).__name__}"]
    if document.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {document.get('schema')!r}"
        )
    for field, kind in (
        ("shape", str),
        ("events_executed", int),
        ("wall_seconds", (int, float)),
        ("top", list),
    ):
        if not isinstance(document.get(field), kind):
            problems.append(f"missing or mistyped field {field!r}")
    rows = document.get("top")
    if not isinstance(rows, list):
        return problems
    previous = None
    for position, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"top[{position}] is not an object")
            continue
        for field, kind in (
            ("function", str),
            ("ncalls", int),
            ("tottime", (int, float)),
            ("cumtime", (int, float)),
        ):
            if not isinstance(row.get(field), kind):
                problems.append(
                    f"top[{position}] missing or mistyped field {field!r}"
                )
        cumtime = row.get("cumtime")
        if isinstance(cumtime, (int, float)):
            if previous is not None and cumtime > previous + 1e-9:
                problems.append(
                    f"top[{position}] breaks the cumtime descending order"
                )
            previous = cumtime
    return problems
