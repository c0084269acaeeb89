"""End-to-end pipeline bench shapes: wall-clock seconds per whole run.

The kernel microbenches in ``test_bench_perf.py`` time the bare
schedule/run loop; these shapes time the *pipeline* — packet/TCP/qstate
work per event included — by running a real benchmark config end to
end.  Two regimes bracket the workload:

- ``fig2_point`` — one Figure 2 VM cell: Nagle on, exchange + hints +
  counter sampling active, the configuration the paper's estimator
  lives in;
- ``faults_on`` — the mixed chaos plan at intensity 1: loss episodes,
  jitter, receiver stalls and exchange corruption keep the retransmit /
  SACK / plausibility paths hot.

Wall-clock depends on the machine, so every run is reported in
*kernel-normalized seconds*: wall seconds times a chained-timer kernel
rate measured on the same machine, over one million, i.e. how long the
run would take on a machine whose chained kernel runs a million events
per second.  The rate is :func:`kernel_reference`: the frozen kernel
in ``benchmarks/frozen_kernel.py``, timed right before and right after
each run, times the committed factor ``k`` that puts it in the units
the references were set in.  That is stable across machines of
different speeds, and unlike events/sec it does not read a run that
does the same work with fewer callbacks as a slowdown.  Events/sec is
still recorded.

``PYTHONPATH=src python -m benchmarks.e2e_shapes`` prints one JSON
measurement (used to refresh ``benchmarks/perf_baseline.json`` — see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import replace

from benchmarks.frozen_kernel import LegacySimulator, best_chained_rate
from repro.experiments.fig2 import fig2_config
from repro.faults import named_plan
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.units import msecs, usecs


def _fig2_point() -> BenchConfig:
    return replace(
        fig2_config(vm=True, nagle=True, seed=1, measure_ns=msecs(80)),
        warmup_ns=msecs(20),
    )


def _dense_sampling() -> BenchConfig:
    """The sample-pipeline stress shape: datacenter-sweep sampling.

    Four connections sampled every 5 us, so counter collection and the
    window estimate (``repro.analysis.counters``) dominate the run.
    """
    return replace(
        fig2_config(vm=True, nagle=True, seed=1, measure_ns=msecs(80)),
        warmup_ns=msecs(20),
        connections=4,
        counter_period_ns=usecs(5),
    )


def _faults_on() -> BenchConfig:
    return BenchConfig(
        rate_per_sec=15_000.0,
        fault_plan=named_plan("mixed"),
        min_rto_ns=msecs(5),
        warmup_ns=msecs(20),
        measure_ns=msecs(80),
        seed=3,
    )


E2E_SHAPES = {
    "fig2_point": _fig2_point,
    "faults_on": _faults_on,
}


def bench_shape(config: BenchConfig) -> tuple[int, float]:
    """One timed run: (simulator callbacks executed, wall-clock seconds).

    Times the whole :func:`run_benchmark` (assembly and summarization
    included — both are part of what a campaign pays per run).
    """
    holder = {}

    def tweak(bed):
        holder["bed"] = bed

    start = time.perf_counter()
    run_benchmark(config, tweak=tweak)
    elapsed = time.perf_counter() - start
    return holder["bed"].sim.events_executed, elapsed


def normalized_s(seconds: float, kernel_eps: float) -> float:
    """Wall seconds on a machine whose chained kernel runs 1M events/s."""
    return round(seconds * kernel_eps / 1e6, 4)


BASELINE_PATH = pathlib.Path(__file__).parent / "perf_baseline.json"


def kernel_reference(reps: int = 3) -> float:
    """The machine-speed normalizer: the frozen kernel's best-of-``reps``
    chained rate times the committed ``k``
    (``conversion.kernel_factor`` in ``perf_baseline.json``)."""
    doc = json.loads(BASELINE_PATH.read_text())
    k = doc["conversion"]["kernel_factor"]["k"]
    return k * best_chained_rate(LegacySimulator, reps)


def calibrated(timed) -> tuple[int, float, float]:
    """``timed() -> (events, seconds)`` between two reference readings:
    (events, seconds, the readings' mean rate)."""
    before = kernel_reference()
    events, seconds = timed()
    after = kernel_reference()
    return events, seconds, (before + after) / 2


def best_calibrated(reps: int, timed) -> tuple[int, float, float]:
    """The :func:`calibrated` run with the fewest normalized seconds."""
    return min(
        (calibrated(timed) for _ in range(reps)),
        key=lambda run: run[1] * run[2],
    )


def measure_all(reps: int = 3) -> dict:
    """Per-shape runs, each normalized by its own reference readings."""
    runs = {
        name: best_calibrated(reps, lambda: bench_shape(factory()))
        for name, factory in E2E_SHAPES.items()
    }
    return {
        "shapes": {
            name: round(events / seconds)
            for name, (events, seconds, _) in runs.items()
        },
        "events": {name: run[0] for name, run in runs.items()},
        "kernel_chained": {
            name: round(run[2]) for name, run in runs.items()
        },
        "normalized_s": {
            name: normalized_s(seconds, kernel)
            for name, (_, seconds, kernel) in runs.items()
        },
    }


def measure_dense_sampling(reps: int = 3) -> dict:
    """The best of ``reps`` runs of the dense-sampling shape.

    Output equivalence is enforced separately by the golden-digest
    suite, so this measures only wall-clock.
    """
    events, seconds, kernel = best_calibrated(
        reps, lambda: bench_shape(_dense_sampling())
    )
    return {
        "shape": "dense_sampling",
        "events": events,
        "events_per_sec": round(events / seconds),
        "kernel_chained": round(kernel),
        "normalized_s": {"dense_sampling": normalized_s(seconds, kernel)},
    }


def measure_sharded(reps: int = 3, workers: int = 1) -> dict:
    """The decomposed fan-in, serial vs sharded: seconds per run.

    Each run is the whole ``run_fanin_sharded`` call (partition, the
    supervised campaign of shard jobs, workers and merge included); its
    events are the simulator callbacks summed over every connection's
    sub-simulation.
    On a single-CPU box the sharded run cannot beat the serial one —
    the caller records both and gates only the serial run.
    """
    from repro.experiments.fanin import FaninConfig, run_fanin_sharded

    config = FaninConfig(warmup_ns=msecs(10), measure_ns=msecs(40))
    merged = []

    def timed(shards: int, pool: int) -> tuple[int, float]:
        start = time.perf_counter()
        result = run_fanin_sharded(config, shards=shards, workers=pool)
        elapsed = time.perf_counter() - start
        merged.append(result.merged_events)
        return result.events_executed, elapsed

    events, serial_s, serial_kernel = best_calibrated(
        reps, lambda: timed(1, 1)
    )
    _, sharded_s, sharded_kernel = best_calibrated(
        reps, lambda: timed(2, workers)
    )
    return {
        "shape": "fanin_4c",
        "workers": workers,
        "events": events,
        "merged_events": merged[-1],
        "serial_events_per_sec": round(events / serial_s),
        "sharded_events_per_sec": round(events / sharded_s),
        "kernel_chained": {
            "serial": round(serial_kernel),
            "sharded": round(sharded_kernel),
        },
        "normalized_s": {
            "serial": normalized_s(serial_s, serial_kernel),
            "sharded": normalized_s(sharded_s, sharded_kernel),
        },
    }


def measure_cross_shard(reps: int = 3) -> dict:
    """The windowed engine's native consumer, serial: seconds per run.

    ``bottleneck`` is N flows × one shared link, one window per
    lookahead.  Its cost depends on the window count, so it is
    recorded for the trajectory, not gated.  (The decomposed fan-in
    is a plain campaign; :func:`measure_sharded` times it.)
    """
    from repro.experiments.bottleneck import (
        BottleneckConfig,
        run_shared_bottleneck,
    )

    config = BottleneckConfig(warmup_ns=msecs(10), measure_ns=msecs(30))

    def timed() -> tuple[int, float]:
        start = time.perf_counter()
        result = run_shared_bottleneck(config)
        return result.events_executed, time.perf_counter() - start

    windows = run_shared_bottleneck(config).windows
    events, seconds, kernel = best_calibrated(reps, timed)
    return {
        "shapes": {"bottleneck": round(events / seconds)},
        "events": {"bottleneck": events},
        "bottleneck_windows": windows,
        "kernel_chained": round(kernel),
        "normalized_s": {"bottleneck": normalized_s(seconds, kernel)},
    }


if __name__ == "__main__":
    print(json.dumps(measure_all(), indent=2))
    print(json.dumps(measure_dense_sampling(), indent=2))
    print(json.dumps(measure_sharded(), indent=2))
    print(json.dumps(measure_cross_shard(), indent=2))
