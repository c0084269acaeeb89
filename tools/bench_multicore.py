"""Real multicore speedup measurement for the parallel runners.

The perf suite gates machine-independent serial ratios; wall-clock
parallel *wins* need real cores, which CI boxes may not have.  This
harness records what the machine can actually show into
``benchmarks/results/multicore.json``:

- the decomposed fan-in, serial vs 2 shards / 2 workers;
- an 8-rate x 2-seed ``replicated_sweep``, serial vs pooled;
- the shared-bottleneck windowed run, serial vs 2 shards / 2 workers;

each with its byte-identity check (a speedup that changes a byte is a
bug, not a win).  On a single-CPU box every comparison would measure
only pool overhead, so the harness records a skip marker instead of a
misleading number — CI uploads the file either way, so the trajectory
shows *why* a leg has no speedup data.

Run: ``PYTHONPATH=src python tools/bench_multicore.py``
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

SCHEMA = "repro-multicore-v1"
DEFAULT_OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "results" / "multicore.json"
)


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _best(run, reps: int):
    """Best-of-``reps`` wall-clock (first result kept for identity)."""
    result, best = _timed(run)
    for _ in range(reps - 1):
        _, elapsed = _timed(run)
        best = min(best, elapsed)
    return result, best


def measure_sharded_fanin(reps: int) -> dict:
    from repro.experiments.fanin import FaninConfig, run_fanin_sharded
    from repro.units import msecs

    config = FaninConfig(warmup_ns=msecs(20), measure_ns=msecs(80))
    serial, serial_s = _best(
        lambda: run_fanin_sharded(config, shards=1, workers=1), reps
    )
    sharded, sharded_s = _best(
        lambda: run_fanin_sharded(config, shards=2, workers=2), reps
    )
    return {
        "serial_seconds": round(serial_s, 3),
        "sharded_2x2_seconds": round(sharded_s, 3),
        "speedup": round(serial_s / sharded_s, 3),
        "byte_identical": serial.to_json() == sharded.to_json(),
    }


def measure_parallel_sweep(reps: int) -> dict:
    from repro.loadgen.lancet import BenchConfig
    from repro.loadgen.replications import replicated_sweep
    from repro.units import msecs

    base = BenchConfig(
        rate_per_sec=10_000.0, warmup_ns=msecs(2), measure_ns=msecs(8)
    )
    rates = [5_000.0, 10_000.0, 15_000.0, 20_000.0,
             25_000.0, 30_000.0, 35_000.0, 40_000.0]
    seeds = (1, 2)
    workers = min(4, os.cpu_count() or 1)
    serial, serial_s = _best(
        lambda: replicated_sweep(base, rates, seeds, workers=1), reps
    )
    pooled, pooled_s = _best(
        lambda: replicated_sweep(base, rates, seeds, workers=workers), reps
    )
    return {
        "workers": workers,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(pooled_s, 3),
        "speedup": round(serial_s / pooled_s, 3),
        "identical": pooled == serial,
    }


def measure_bottleneck_sync(reps: int) -> dict:
    from repro.experiments.bottleneck import (
        BottleneckConfig,
        run_shared_bottleneck,
    )
    from repro.units import msecs

    # 80 windows of real contention.  Each window costs the 2x2 run one
    # executor round trip per shard, so this ratio is a per-window
    # overhead measurement as much as a parallel one.
    config = BottleneckConfig(warmup_ns=msecs(10), measure_ns=msecs(30))
    serial, serial_s = _best(
        lambda: run_shared_bottleneck(config, shards=1, workers=1), reps
    )
    windowed, windowed_s = _best(
        lambda: run_shared_bottleneck(config, shards=2, workers=2), reps
    )
    return {
        "windows": serial.windows,
        "exchanged_events": serial.exchanged_events,
        "serial_seconds": round(serial_s, 3),
        "windowed_2x2_seconds": round(windowed_s, 3),
        "speedup": round(serial_s / windowed_s, 3),
        "byte_identical": serial.to_json() == windowed.to_json(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="record real multicore speedups (or a skip marker)"
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT,
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--reps", type=int, default=2,
        help="wall-clock repetitions per shape (best-of; default 2)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    document = {"schema": SCHEMA, "cpu_count": cpu_count}
    if cpu_count < 2:
        document["skipped"] = "cpu_count<2"
        print(f"cpu_count={cpu_count}: a pool on one core measures only "
              "overhead; recording the skip instead of a misleading number")
    else:
        document["sharded_fanin"] = measure_sharded_fanin(args.reps)
        document["parallel_sweep"] = measure_parallel_sweep(args.reps)
        document["bottleneck_sync"] = measure_bottleneck_sync(args.reps)
        for name in ("sharded_fanin", "bottleneck_sync"):
            section = document[name]
            if not section["byte_identical"]:
                print(f"ERROR: {name} parallel run is not byte-identical "
                      "to serial", file=sys.stderr)
                return 1
            print(f"{name}: {section['speedup']}x "
                  f"({section['serial_seconds']}s serial)")
        sweep = document["parallel_sweep"]
        if not sweep["identical"]:
            print("ERROR: pooled sweep diverged from serial",
                  file=sys.stderr)
            return 1
        print(f"parallel_sweep: {sweep['speedup']}x "
              f"with {sweep['workers']} workers")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
