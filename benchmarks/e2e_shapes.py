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

Wall-clock depends on the machine, so ``kernel_reference()`` measures
the pure event-kernel chained-timer shape on the same machine and every
run is reported in *kernel-normalized seconds*: wall seconds times the
kernel's events/sec over one million, i.e. how long the run would take
on a machine whose chained kernel runs a million events per second.
That is stable across machines of different speeds, and unlike
events/sec it does not read a run that does the same work with fewer
callbacks as a slowdown.  Events/sec is still recorded.

``PYTHONPATH=src python -m benchmarks.e2e_shapes`` prints one JSON
measurement (used to refresh ``benchmarks/perf_baseline.json`` — see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

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


def best_of(reps: int, timed) -> tuple[int, float]:
    """The fastest of ``reps`` calls of ``timed() -> (events, seconds)``."""
    return min((timed() for _ in range(reps)), key=lambda run: run[1])


def normalized_s(seconds: float, kernel_eps: float) -> float:
    """Wall seconds on a machine whose chained kernel runs 1M events/s."""
    return round(seconds * kernel_eps / 1e6, 4)


def measure_shapes(reps: int = 3) -> dict[str, tuple[int, float]]:
    """Best-of-``reps`` (events, seconds) per shape."""
    return {
        name: best_of(reps, lambda: bench_shape(factory()))
        for name, factory in E2E_SHAPES.items()
    }


def kernel_reference(reps: int = 3) -> float:
    """The chained-timer kernel shape, as a machine-speed normalizer."""
    from repro.sim.loop import Simulator

    def chained(n: int = 100_000) -> float:
        sim = Simulator()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < n:
                sim.call_after(10, tick)

        sim.call_after(10, tick)
        start = time.perf_counter()
        sim.run()
        assert state["count"] == n
        return n / (time.perf_counter() - start)

    return max(chained() for _ in range(reps))


def measure_all(reps: int = 3) -> dict:
    """The full measurement: per-shape runs plus the normalizer."""
    shapes = measure_shapes(reps)
    kernel = kernel_reference(reps)
    return {
        "shapes": {
            name: round(events / seconds)
            for name, (events, seconds) in shapes.items()
        },
        "events": {name: events for name, (events, _) in shapes.items()},
        "kernel_chained": round(kernel),
        "normalized_s": {
            name: normalized_s(seconds, kernel)
            for name, (_, seconds) in shapes.items()
        },
    }


def measure_dense_sampling(reps: int = 3) -> dict:
    """The best of ``reps`` runs of the dense-sampling shape.

    Output equivalence is enforced separately by the golden-digest
    suite, so this measures only wall-clock.
    """
    events, seconds = best_of(reps, lambda: bench_shape(_dense_sampling()))
    kernel = kernel_reference(reps)
    return {
        "shape": "dense_sampling",
        "events": events,
        "events_per_sec": round(events / seconds),
        "kernel_chained": round(kernel),
        "normalized_s": {"dense_sampling": normalized_s(seconds, kernel)},
    }


def measure_sharded(reps: int = 3, workers: int = 1) -> dict:
    """The decomposed fan-in, serial vs sharded: seconds per run.

    Each run is the whole ``run_fanin_sharded`` call (partition,
    windowed engine, workers and merge included); its events are the
    simulator callbacks summed over every connection's sub-simulation.
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

    events, serial_s = best_of(reps, lambda: timed(1, 1))
    _, sharded_s = best_of(reps, lambda: timed(2, workers))
    kernel = kernel_reference(reps)
    return {
        "shape": "fanin_4c",
        "workers": workers,
        "events": events,
        "merged_events": merged[-1],
        "serial_events_per_sec": round(events / serial_s),
        "sharded_events_per_sec": round(events / sharded_s),
        "kernel_chained": round(kernel),
        "normalized_s": {
            "serial": normalized_s(serial_s, kernel),
            "sharded": normalized_s(sharded_s, kernel),
        },
    }


def measure_cross_shard(reps: int = 3) -> dict:
    """The windowed engine's native consumer, serial: seconds per run.

    ``bottleneck`` is N flows × one shared link, one window per
    lookahead.  Its cost depends on the window count, so it is
    recorded for the trajectory, not gated.  (The decomposed fan-in
    runs on the same engine; :func:`measure_sharded` times it.)
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
    events, seconds = best_of(reps, timed)
    kernel = kernel_reference(reps)
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
