"""Wall-clock performance harness: kernel events/sec and campaign speedup.

Not a paper artifact — these benches track the substrate's own speed and
write machine-readable numbers to ``benchmarks/results/perf.json`` so the
performance trajectory accumulates across PRs:

- the event-kernel microbenches time the pure schedule/run loop in three
  shapes (a chained timer, a cancel-heavy timer churn like TCP's
  retransmit/delack arming, and a deep heap) against the frozen copy of
  the seed's ``_Scheduled``-object kernel in ``frozen_kernel.py``;
- the campaign bench times an 8-rate x 3-seed ``replicated_sweep``
  serially and with a worker pool and checks the results are identical
  (the determinism guarantee the parallel runner makes).

Speedup assertions are deliberately loose — exact numbers land in
perf.json, and the hard speedup floor applies only where the hardware
can deliver it (the pool cannot beat serial on a single core).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from benchmarks.frozen_kernel import LegacySimulator, chained_rate
from repro.loadgen.lancet import BenchConfig
from repro.loadgen.replications import replicated_sweep
from repro.sim.loop import Simulator
from repro.units import msecs

PERF_PATH = pathlib.Path(__file__).parent / "results" / "perf.json"


def _update_perf(key: str, payload: dict) -> None:
    PERF_PATH.parent.mkdir(exist_ok=True)
    data = {}
    if PERF_PATH.exists():
        data = json.loads(PERF_PATH.read_text())
    data[key] = payload
    data["meta"] = {"cpu_count": os.cpu_count()}
    PERF_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Kernel microbench shapes.  Each returns events/sec for one simulator
# class; the shapes bracket the real workload (ARCHITECTURE.md: ~40 heap
# events per request, with retransmit/delack timers armed and cancelled
# per segment).
# ---------------------------------------------------------------------------


def _bench_cancel_churn(sim_cls, n: int = 50_000) -> float:
    """Every event arms and cancels a timer — the TCP rtx/delack pattern."""
    sim = sim_cls()
    state = {"count": 0}

    def tick():
        state["count"] += 1
        sim.cancel(sim.call_after(1000, _noop))
        if state["count"] < n:
            sim.call_after(10, tick)

    sim.call_after(10, tick)
    start = time.perf_counter()
    sim.run()
    assert state["count"] == n
    return n / (time.perf_counter() - start)


def _noop() -> None:
    pass


def _bench_deep_heap(sim_cls, n: int = 50_000, depth: int = 1_000) -> float:
    """The chained timer over a heap pre-loaded with far-future entries."""
    sim = sim_cls()
    for index in range(depth):
        sim.call_at(10**9 + index, _noop)
    state = {"count": 0}

    def tick():
        state["count"] += 1
        if state["count"] < n:
            sim.call_after(10, tick)

    sim.call_after(10, tick)
    start = time.perf_counter()
    sim.run(until=10**8)
    assert state["count"] == n
    return n / (time.perf_counter() - start)


_KERNEL_SHAPES = {
    "chained": chained_rate,
    "cancel_churn": _bench_cancel_churn,
    "deep_heap": _bench_deep_heap,
}


def test_perf_kernel_events_per_sec():
    """The list-entry kernel must beat the seed kernel by >= 20%.

    Per-shape events/sec land in perf.json; the assertion is on the
    geometric mean across shapes, with a little slack under the 20%
    target so scheduler noise on loaded CI machines cannot flake a
    genuinely faster kernel.
    """
    rows = {}
    ratio_product = 1.0
    for name, bench in _KERNEL_SHAPES.items():
        current = max(bench(Simulator) for _ in range(3))
        legacy = max(bench(LegacySimulator) for _ in range(3))
        rows[name] = {
            "events_per_sec": round(current),
            "seed_events_per_sec": round(legacy),
            "speedup": round(current / legacy, 3),
        }
        ratio_product *= current / legacy
    geomean = ratio_product ** (1 / len(_KERNEL_SHAPES))
    _update_perf("kernel", {"shapes": rows, "geomean_speedup": round(geomean, 3)})
    print(f"\nkernel speedup vs seed: {geomean:.2f}x (shapes: " + ", ".join(
        f"{name} {row['speedup']}x" for name, row in rows.items()) + ")")
    assert geomean >= 1.15, rows


BASELINE_PATH = pathlib.Path(__file__).parent / "perf_baseline.json"


def _gate(name: str, measured: float, reference: float, what: str) -> None:
    """Fail if a shape's kernel-normalized seconds per run exceed its
    committed reference by more than the 10% the gate allows."""
    ceiling = reference / 0.90
    assert measured <= ceiling, (
        f"{name}: {measured} kernel-normalized s per run is more than 10% "
        f"over the committed baseline {reference} (ceiling {ceiling:.4f}) "
        f"on a cpu_count={os.cpu_count()} box — {what}"
    )


def test_perf_e2e_pipeline():
    """End-to-end seconds per run: record, and gate against baseline.

    Two full-pipeline shapes (the fig2 headline point and a faults-on
    run; see ``benchmarks/e2e_shapes.py``) are timed and recorded in
    perf.json alongside the improvement over the committed measurement
    from before the hot-path pass.  The hard assertion is the
    regression gate: wall seconds per run *normalized by the
    chained-kernel rate on the same machine* must not rise more than
    10% over ``perf_baseline.json``'s ``baseline`` section.
    Normalizing by the kernel rate makes the gate machine independent,
    so a slow CI box does not read as a pipeline regression; counting
    seconds per run rather than events per second means a change that
    drops callbacks reads as the speedup it is.
    """
    from benchmarks.e2e_shapes import measure_all

    baseline_doc = json.loads(BASELINE_PATH.read_text())
    measured = measure_all(reps=3)

    # Both sides kernel-normalized, so the ratio holds across hosts.
    pre = baseline_doc["pre_pr"]["normalized_s"]
    improvement = {
        name: pre[name] / measured["normalized_s"][name]
        for name in sorted(pre)
    }
    ratio_product = 1.0
    for ratio in improvement.values():
        ratio_product *= ratio
    geomean = ratio_product ** (1 / len(improvement))
    _update_perf("e2e", {
        **measured,
        "improvement_vs_pre_pr": {
            name: round(ratio, 3) for name, ratio in improvement.items()
        },
        "geomean_improvement_vs_pre_pr": round(geomean, 3),
    })
    print(f"\ne2e improvement vs pre-PR: {geomean:.2f}x (" + ", ".join(
        f"{name} {measured['normalized_s'][name]} s ({ratio:.2f}x)"
        for name, ratio in improvement.items()) + ")")

    gate = baseline_doc["baseline"]["normalized_s"]
    for name, reference in sorted(gate.items()):
        _gate(name, measured["normalized_s"][name], reference,
              "a pipeline perf regression")
    # Soft floor on the recorded improvement: well under the measured
    # ~1.3x so wall-clock noise cannot flake it, but still catching a
    # wholesale loss of the optimization pass.
    assert geomean >= 1.10, improvement


def test_perf_parallel_sweep_speedup():
    """Serial vs pooled 8-rate x 3-seed sweep: identical results, faster.

    On a single-CPU box the comparison is meaningless — the pool can
    only lose to serial, and recording that loss as a "speedup" number
    misleads anyone reading perf.json — so the bench skips outright and
    records why.  Where it runs, the >= 2x wall-clock floor applies only
    if the hardware can deliver it (>= 4 cores); the exact speedup is
    recorded in perf.json and the byte-identical-results guarantee is
    asserted.
    """
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        _update_perf("parallel_sweep", {"skipped": "cpu_count<2"})
        pytest.skip(
            f"parallel sweep needs >= 2 CPUs (have {cpu_count}); "
            "a pool on one core measures only overhead"
        )
    base = BenchConfig(
        rate_per_sec=10_000.0, warmup_ns=msecs(2), measure_ns=msecs(8)
    )
    rates = [5_000.0, 10_000.0, 15_000.0, 20_000.0,
             25_000.0, 30_000.0, 35_000.0, 40_000.0]
    seeds = (1, 2, 3)
    workers = min(4, cpu_count)

    start = time.perf_counter()
    serial = replicated_sweep(base, rates, seeds, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = replicated_sweep(base, rates, seeds, workers=workers)
    parallel_s = time.perf_counter() - start

    assert parallel == serial  # exact float equality, the determinism bar
    speedup = serial_s / parallel_s
    _update_perf("parallel_sweep", {
        "rates": len(rates),
        "seeds": len(seeds),
        "workers": workers,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 3),
    })
    print(f"\nsweep wall-clock: serial {serial_s:.2f}s, "
          f"parallel({workers}) {parallel_s:.2f}s -> {speedup:.2f}x")
    if cpu_count >= 4:
        assert speedup >= 2.0, (serial_s, parallel_s, f"cpu_count={cpu_count}")


def test_perf_dense_sampling_pipeline():
    """The sample pipeline on the dense-sampling shape.

    At datacenter-sweep sampling density counter collection dominates
    the run, so this shape guards the flat-column collector: its
    kernel-normalized seconds per run must not rise more than 10% over
    the committed ``dense_sampling`` baseline (same rule as the e2e
    gate, machine-independent).  Per-tick object snapshots ran about
    twice as long.  Numbers land in perf.json's ``dense_sampling``
    section.
    """
    from benchmarks.e2e_shapes import measure_dense_sampling

    baseline_doc = json.loads(BASELINE_PATH.read_text())
    measured = measure_dense_sampling(reps=3)
    _update_perf("dense_sampling", measured)
    print(f"\ndense_sampling: {measured['events_per_sec']} ev/s "
          f"(normalized {measured['normalized_s']['dense_sampling']} s)")

    _gate("dense_sampling", measured["normalized_s"]["dense_sampling"],
          baseline_doc["dense_sampling"]["normalized_s"]["dense_sampling"],
          "a sample-pipeline regression")


def test_perf_sharded_pipeline():
    """The decomposed fan-in: serial run time gated, sharding recorded.

    The serial (1-shard, in-process) run is the machine-independent
    number the gate protects — sharding overhead must never erode the
    single-core decomposed model.  The 2-shard run and the windowed
    engine's shared-bottleneck shape (whose cost depends on its window
    count) are recorded for the
    trajectory; a wall-clock win is only asserted where a second CPU
    exists to deliver it (byte-identity across shard counts is the
    equivalence suite's job, not wall-clock's).
    """
    from benchmarks.e2e_shapes import measure_cross_shard, measure_sharded

    cpu_count = os.cpu_count() or 1
    baseline_doc = json.loads(BASELINE_PATH.read_text())
    measured = measure_sharded(reps=3, workers=min(2, cpu_count))
    _update_perf("sharded", measured)
    bottleneck = measure_cross_shard(reps=3)
    _update_perf("cross_shard", bottleneck)
    print(f"\nsharded fanin: serial {measured['serial_events_per_sec']} ev/s, "
          f"2-shard/{measured['workers']}w "
          f"{measured['sharded_events_per_sec']} ev/s; bottleneck "
          f"{bottleneck['shapes']['bottleneck']} ev/s over "
          f"{bottleneck['bottleneck_windows']} windows")

    _gate("fanin_serial", measured["normalized_s"]["serial"],
          baseline_doc["sharded"]["normalized_s"]["fanin_serial"],
          "a sharded-runner regression")
