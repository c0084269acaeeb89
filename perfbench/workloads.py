"""The benchmark's four workloads, their inputs and their output digests.

Each workload turns a seed into one simulator input, runs it once per
call to :meth:`Workload.run_once`, and reduces the result to a
canonical-JSON SHA-256 digest (the recipe of ``tests/perf/golden.py``,
reimplemented here so the benchmark depends on nothing outside its own
directory but the ``repro`` package).  Why each workload exists is
recorded in ``WHY`` and in this directory's README.

Imports of ``repro`` happen inside the methods, so the set-up probe
pays for exactly the modules its workload needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import time
from dataclasses import dataclass, field, replace

#: Inputs per ``--seed``: rep ``j`` runs sub-seed ``(j // 2) % SUBSEEDS``,
#: so every sub-seed runs twice in a row (its digest must repeat) and a
#: run's medians span several seeds.  Peak memory on ``faults_on`` swings
#: up to 30% from one seed to the next, so one seed per run is not steady.
SUBSEEDS = 8


def subseed(seed: int, index: int) -> int:
    """The ``index``-th input seed of ``--seed seed``; index 0 is ``seed``
    itself, so the default seeds still run the historical shapes."""
    return seed + index * 1_000_003

WHY = {
    "fig2_point": (
        "Figure 2 VM cell, one connection: the packet path (net TSO/GRO, "
        "tcp, sim kernel); core is ~2% of it"
    ),
    "dense_sampling": (
        "4 connections sampled every 5 us on the default pipeline: "
        "analysis counters, core qstate and summarize dominate"
    ),
    "faults_on": (
        "mixed chaos plan, 8 connections at 15k RPS: retransmit/SACK/RTO, "
        "fault hooks and exchange plausibility checks"
    ),
    "bottleneck_2w": (
        "4-flow shared bottleneck through sim.sync on 2 shards x 2 workers: "
        "the windowed engine, PoolLease and pickled job payloads"
    ),
}


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace; dataclass trees flattened first."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def digest(obj) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass
class Rep:
    """One run of a workload: its result, timings and exact counts."""

    digest: str
    run_s: float              # end of set-up to the summarized result
    wall_s: float             # the whole call, set-up included
    facts: dict = field(default_factory=dict)
    estimate_err_pct: float | None = None
    scale: float = 1.0        # to reference-speed seconds (calibrate.py)
    index: int = 0            # which sub-seed ran
    rss_mb: float = 0.0       # peak RSS of the process that ran it
    worker_rss_mb: float = 0.0  # largest pool worker's peak RSS


class Workload:
    """One fixed simulator input, parameterized only by its seed."""

    name: str
    default_seed: int
    #: Whether the simulator runs in this process (spans see its events).
    in_process = True

    def config(self, seed: int):
        raise NotImplementedError

    def assemble(self, seed: int) -> None:
        """Import ``repro`` and build the workload, then stop."""
        raise NotImplementedError

    def reference_digest(self, config) -> str | None:
        """A digest every rep must equal, from an independent run."""
        return None

    def run_once(self, config) -> Rep:
        raise NotImplementedError


class _Assembled(Exception):
    """Raised from the ``tweak`` hook to stop a testbed run once built."""


class TestbedWorkload(Workload):
    """A two-host testbed run through ``repro.loadgen.lancet``."""

    def __init__(self, name: str, default_seed: int, **overrides):
        self.name = name
        self.default_seed = default_seed
        self._overrides = overrides

    def config(self, seed: int):
        from repro.experiments.fig2 import fig2_config
        from repro.faults import named_plan
        from repro.loadgen.lancet import BenchConfig
        from repro.units import msecs

        if self.name == "faults_on":
            base = BenchConfig(
                rate_per_sec=15_000.0,
                fault_plan=named_plan("mixed"),
                min_rto_ns=msecs(5),
                seed=seed,
            )
        else:
            base = fig2_config(vm=True, nagle=True, seed=seed)
        horizon = {"warmup_ns": msecs(20), "measure_ns": msecs(80)}
        return replace(base, **{**horizon, **self._overrides})

    def assemble(self, seed: int) -> None:
        from repro.loadgen import lancet

        def stop(bed):
            raise _Assembled

        try:
            lancet.run_benchmark(self.config(seed), tweak=stop)
        except _Assembled:
            return

    def run_once(self, config) -> Rep:
        from repro.loadgen import lancet

        held = {}

        def mark(bed):
            held["bed"] = bed
            held["t"] = time.perf_counter()

        start = time.perf_counter()
        result = lancet.run_benchmark(config, tweak=mark)
        end = time.perf_counter()
        bed = held["bed"]
        return Rep(
            digest=digest(result),
            run_s=end - held["t"],
            wall_s=end - start,
            facts=testbed_facts(bed, result),
            estimate_err_pct=estimate_err_pct(result),
        )


class BottleneckWorkload(Workload):
    """The shared-bottleneck scenario on the windowed engine."""

    name = "bottleneck_2w"
    default_seed = 1
    in_process = False
    shards = 2
    workers = 2

    def config(self, seed: int):
        from repro.experiments.bottleneck import BottleneckConfig
        from repro.units import msecs

        # 20 ms horizon / 500 us lookahead = 40 windows: the engine's
        # per-window cost grows with the window count, so this keeps a
        # rep near 2 s on two cores.  At the default 8k RPS the few
        # hundred requests make the exchanged traffic swing ±20% between
        # seeds; at 32k RPS the 400 Mb/s link is saturated, so the link,
        # not the seed, sets what crosses the engine.
        return BottleneckConfig(
            total_rate_per_sec=32_000.0,
            warmup_ns=msecs(10),
            measure_ns=msecs(10),
            seed=seed,
        )

    def assemble(self, seed: int) -> None:
        self.config(seed)

    def reference_digest(self, config) -> str:
        """The serial ``shards=1, workers=1`` run: the byte-identity
        contract every partition must meet."""
        from repro.experiments.bottleneck import run_shared_bottleneck

        return digest(run_shared_bottleneck(config, shards=1, workers=1))

    def run_once(self, config) -> Rep:
        from repro.experiments.bottleneck import run_shared_bottleneck

        start = time.perf_counter()
        result = run_shared_bottleneck(
            config, shards=self.shards, workers=self.workers
        )
        end = time.perf_counter()
        reap_workers()
        return Rep(
            digest=digest(result),
            run_s=end - start,
            wall_s=end - start,
            facts={
                "sim.events": result.events_executed,
                "apps.requests": result.merged_events,
            },
        )


def reap_workers() -> None:
    """Wait for every worker process this process started to exit.

    The engine's pool lease shuts down without waiting; joining here
    keeps the benchmark from leaving processes behind and makes their
    peak memory visible to ``RUSAGE_CHILDREN``.
    """
    for process in multiprocessing.active_children():
        process.join()


def estimate_err_pct(result) -> float | None:
    """|§3.2 three-queue estimate − measured send latency| / measured, %."""
    estimate = result.estimate
    measured = result.send_latency.mean_ns
    if estimate is None or not estimate.defined or not measured:
        return None
    return abs(estimate.latency_ns - measured) / measured * 100


def testbed_facts(bed, result) -> dict:
    """Exact per-layer counts read from the finished testbed."""
    sockets = [s for c in bed.conns for s in (c.client_sock, c.server_sock)]
    segments = sum(s.segments_sent for s in sockets)
    retransmits = sum(s.retransmits for s in sockets)
    drops = 0
    if bed.faults is not None:
        drops = sum(
            hook.loss_drops + hook.blackout_drops
            for hook in bed.faults.link_hooks.values()
        ) + sum(hook.drops for hook in bed.faults.nic_hooks.values())
    return {
        "backend": bed.backend,
        "sim.events": bed.sim.events_executed,
        "net.wire_packets": (
            bed.client_host.nic.tx_wire_packets
            + bed.server_host.nic.tx_wire_packets
        ),
        "tcp.segments_sent": segments,
        "tcp.retransmits": retransmits,
        "tcp.retransmit_frac": retransmits / max(1, segments + retransmits),
        "host.server_app_util": result.server_app_util,
        "host.server_net_util": result.server_net_util,
        "apps.requests": sum(len(c.client.records) for c in bed.conns),
        "apps.server_mean_batch": result.server_mean_batch,
        "core.exchanges": sum(
            c.client_exchange.states_sent + c.server_exchange.states_sent
            for c in bed.conns
        ),
        "analysis.samples": sum(c.collector.sample_count for c in bed.conns),
        "faults.drops": drops,
    }


_US = 1_000
_MS = 1_000_000

# Testbed horizons are the ``benchmarks/e2e_shapes.py`` shapes (20 ms
# warmup + 80 ms measured) except ``faults_on``: with one connection its
# work swings 3x between seeds (one RTO backoff stalls the whole run),
# so it spreads the same offered load over 8 connections for 100 ms.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        TestbedWorkload("fig2_point", 1),
        TestbedWorkload(
            "dense_sampling", 1, connections=4, counter_period_ns=5 * _US,
        ),
        TestbedWorkload(
            "faults_on", 3, connections=8, measure_ns=100 * _MS,
        ),
        BottleneckWorkload(),
    )
}
