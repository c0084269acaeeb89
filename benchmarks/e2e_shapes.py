"""End-to-end pipeline bench shapes: whole-run events/sec.

The kernel microbenches in ``test_bench_perf.py`` time the bare
schedule/run loop; these shapes time the *pipeline* — packet/TCP/qstate
work per event included — by running a real benchmark config and
dividing the simulator's executed-callback count by wall-clock time.
Two regimes bracket the workload:

- ``fig2_point`` — one Figure 2 VM cell: Nagle on, exchange + hints +
  counter sampling active, the configuration the paper's estimator
  lives in;
- ``faults_on`` — the mixed chaos plan at intensity 1: loss episodes,
  jitter, receiver stalls and exchange corruption keep the retransmit /
  SACK / plausibility paths hot.

Events/sec is wall-clock (machine-dependent); ``kernel_reference()``
measures the pure event-kernel chained-timer shape on the same machine
so stored baselines can be compared as *ratios* (pipeline events/sec ÷
kernel events/sec), which is stable across machines of different speeds.

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


def bench_shape(config: BenchConfig) -> float:
    """One timed run: simulator callbacks executed per wall-clock second.

    Times the whole :func:`run_benchmark` (assembly and summarization
    included — both are part of what a campaign pays per run).
    """
    holder = {}

    def tweak(bed):
        holder["bed"] = bed

    start = time.perf_counter()
    run_benchmark(config, tweak=tweak)
    elapsed = time.perf_counter() - start
    return holder["bed"].sim.events_executed / elapsed


def measure_shapes(reps: int = 3) -> dict[str, float]:
    """Best-of-``reps`` events/sec per shape."""
    return {
        name: max(bench_shape(factory()) for _ in range(reps))
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
    """The full measurement: per-shape events/sec plus the normalizer."""
    shapes = measure_shapes(reps)
    kernel = kernel_reference(reps)
    return {
        "shapes": {name: round(eps) for name, eps in shapes.items()},
        "kernel_chained": round(kernel),
        "normalized": {
            name: round(eps / kernel, 4) for name, eps in shapes.items()
        },
    }


def measure_dense_sampling(reps: int = 3) -> dict:
    """Best-of-``reps`` events/sec on the dense-sampling shape.

    Output equivalence is enforced separately by the golden-digest
    suite, so this measures only wall-clock.
    """
    dense = max(bench_shape(_dense_sampling()) for _ in range(reps))
    kernel = kernel_reference(reps)
    return {
        "shape": "dense_sampling",
        "events_per_sec": round(dense),
        "kernel_chained": round(kernel),
        "normalized": {"dense_sampling": round(dense / kernel, 4)},
    }


def measure_sharded(reps: int = 3, workers: int = 1) -> dict:
    """The decomposed fan-in, serial vs sharded: merged events/sec.

    Events/sec here counts simulator callbacks summed over every
    connection's sub-simulation divided by the wall-clock of the whole
    ``run_fanin_sharded`` call (partition, windowed engine, workers and
    merge included).
    On a single-CPU box the sharded run cannot beat the serial one —
    the caller records both and gates only the serial ratio.
    """
    from repro.experiments.fanin import FaninConfig, run_fanin_sharded

    config = FaninConfig(warmup_ns=msecs(10), measure_ns=msecs(40))

    def timed(shards: int, pool: int) -> tuple[float, int]:
        start = time.perf_counter()
        result = run_fanin_sharded(config, shards=shards, workers=pool)
        elapsed = time.perf_counter() - start
        return result.events_executed / elapsed, result.merged_events

    serial_eps, merged = 0.0, 0
    for _ in range(reps):
        eps, merged = timed(1, 1)
        serial_eps = max(serial_eps, eps)
    sharded_eps = 0.0
    for _ in range(reps):
        eps, _ = timed(2, workers)
        sharded_eps = max(sharded_eps, eps)
    kernel = kernel_reference(reps)
    return {
        "shape": "fanin_4c",
        "workers": workers,
        "merged_events": merged,
        "serial_events_per_sec": round(serial_eps),
        "sharded_events_per_sec": round(sharded_eps),
        "kernel_chained": round(kernel),
        "normalized": {
            "serial": round(serial_eps / kernel, 4),
            "sharded": round(sharded_eps / kernel, 4),
        },
    }


def measure_cross_shard(reps: int = 3) -> dict:
    """The windowed engine's native consumer, serial: events/sec.

    ``bottleneck`` is N flows × one shared link, one window per
    lookahead.  Its ratio depends on the window count, so it is
    recorded for the trajectory, not gated.  (The decomposed fan-in
    runs on the same engine; :func:`measure_sharded` times it.)
    """
    from repro.experiments.bottleneck import (
        BottleneckConfig,
        run_shared_bottleneck,
    )

    config = BottleneckConfig(warmup_ns=msecs(10), measure_ns=msecs(30))

    def timed() -> float:
        start = time.perf_counter()
        result = run_shared_bottleneck(config)
        return result.events_executed / (time.perf_counter() - start)

    windows = run_shared_bottleneck(config).windows
    bottleneck_eps = max(timed() for _ in range(reps))
    kernel = kernel_reference(reps)
    return {
        "shapes": {"bottleneck": round(bottleneck_eps)},
        "bottleneck_windows": windows,
        "kernel_chained": round(kernel),
        "normalized": {"bottleneck": round(bottleneck_eps / kernel, 4)},
    }


if __name__ == "__main__":
    print(json.dumps(measure_all(), indent=2))
    print(json.dumps(measure_dense_sampling(), indent=2))
    print(json.dumps(measure_sharded(), indent=2))
    print(json.dumps(measure_cross_shard(), indent=2))
