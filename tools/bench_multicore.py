"""Real multicore speedup measurement for the parallel runners.

The perf suite gates machine-independent serial ratios; wall-clock
parallel *wins* need real cores, which CI boxes may not have.  This
harness records what the machine can actually show into
``benchmarks/results/multicore.json``:

- the decomposed fan-in, serial vs 2 shards / 2 workers (each shard
  one job of a supervised campaign);
- an 8-rate x 2-seed ``replicated_sweep``, serial vs pooled;

each with its byte-identity check (a speedup that changes a byte is a
bug, not a win).  On a single-CPU box every comparison would measure
only pool overhead, so the harness records a skip marker instead of a
misleading number — CI uploads the file either way, so the trajectory
shows *why* a leg has no speedup data.  (The shared bottleneck has no
leg: the windowed engine runs its coupled components as one in-process
job for any shard or worker count, so a leg would time serial against
serial.)

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
        fanin = document["sharded_fanin"]
        if not fanin["byte_identical"]:
            print("ERROR: sharded_fanin parallel run is not byte-identical "
                  "to serial", file=sys.stderr)
            return 1
        print(f"sharded_fanin: {fanin['speedup']}x "
              f"({fanin['serial_seconds']}s serial)")
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
