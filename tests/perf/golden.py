"""Golden-digest equivalence harness for the hot-path optimization pass.

The optimization work in ``sim/``, ``tcp/``, ``net/`` and ``core/`` is
allowed to change *how fast* the pipeline runs, never *what* it
computes.  This module pins that down: a handful of representative runs
(a Figure 2 VM cell, a Figure 4a sweep point, a faults-on chaos run) are
reduced to content digests — a canonical-JSON SHA-256 of the full
:class:`~repro.loadgen.lancet.RunResult` tree and of the emitted
``repro-trace-v1`` stream — and the digests captured *before* the
optimization pass are committed in ``test_equivalence.py``.  Any
optimization that perturbs a single float, counter, or trace record
changes a digest and fails the suite.

Run ``PYTHONPATH=src python tests/perf/golden.py`` to print the current
tree's digests (e.g. after an intentional semantic change, to refresh
the goldens — say so in the commit message).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace

from repro.experiments.fig2 import fig2_config
from repro.experiments.fig4a import default_config as fig4a_config
from repro.faults import named_plan
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.units import msecs, usecs


def equivalence_configs() -> dict[str, BenchConfig]:
    """The pinned run set: one config per pipeline regime.

    Windows are deliberately short — the suite runs under tier-1 — but
    long enough that every hot path fires (GRO, delack, exchange ticks,
    counter sampling, and for the faults run: loss, jitter, recovery).
    """
    return {
        "fig2_vm_nagle": replace(
            fig2_config(vm=True, nagle=True, seed=1, measure_ns=msecs(20)),
            warmup_ns=msecs(10),
        ),
        "fig4a_35k": replace(
            fig4a_config(measure_ns=msecs(20)),
            rate_per_sec=35_000.0,
            warmup_ns=msecs(10),
        ),
        "faults_mixed": BenchConfig(
            rate_per_sec=15_000.0,
            fault_plan=named_plan("mixed"),
            min_rto_ns=msecs(5),
            warmup_ns=msecs(10),
            measure_ns=msecs(30),
            seed=3,
        ),
    }


def canonical_json(obj) -> str:
    """Canonical JSON for digesting: sorted keys, no whitespace.

    Dataclass trees (RunResult and everything it embeds) are flattened
    via :func:`dataclasses.asdict`; NaN serializes as the ``NaN`` token,
    which is fine for digesting (repr is deterministic).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def digest(obj) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def run_plain(config: BenchConfig):
    """One run with every instrumentation layer off (the default)."""
    return run_benchmark(config)


def experiment_shapes() -> dict[str, object]:
    """Digest-pinned *experiment* runs: realistic many-flow traffic.

    The bench shapes above exercise the single-connection pipeline;
    these cover the fan-in (N flows into one server), time-varying
    (load walk under three policies) and shared-bottleneck experiments,
    so pipeline and sharding changes are equivalence-checked against
    many-flow traffic.  Windows are shortened to tier-1 size, same as
    the bench shapes.

    Three more pin the §3.2 estimate paths no other digest reaches: the
    chaos sweep's hardened two-sided toggler, the fan-in's spanning
    toggler over oracle-mode estimators, and A11's per-leg
    decomposition of the offline estimate.
    """
    from repro.experiments.bottleneck import BottleneckConfig
    from repro.experiments.fanin import FaninConfig
    from repro.experiments.timevarying import PhasePlan

    fanin = FaninConfig(warmup_ns=msecs(10), measure_ns=msecs(40))
    return {
        "fanin_4c": fanin,
        "timevarying_walk": PhasePlan(phase_ns=msecs(40)),
        "bottleneck_4f": BottleneckConfig(
            warmup_ns=msecs(10), measure_ns=msecs(30)
        ),
        "faults_chaos": {
            "intensities": (0.0, 1.0), "measure_ns": msecs(30),
        },
        "fanin_4c_toggler": fanin,
        "decomposition": {
            "rates": (5_000.0, 36_000.0),
            "base": fig4a_config(measure_ns=msecs(20)),
        },
    }


def run_experiment(name: str):
    """Run one experiment shape; returns its result dataclass tree."""
    shape = experiment_shapes()[name]
    if name == "fanin_4c":
        from repro.experiments.fanin import run_fanin

        return run_fanin(shape)
    if name == "timevarying_walk":
        from repro.experiments.timevarying import run_timevarying

        return run_timevarying(plan=shape)
    if name == "bottleneck_4f":
        from repro.experiments.bottleneck import run_shared_bottleneck

        return run_shared_bottleneck(shape)
    if name == "faults_chaos":
        from repro.experiments.faults import run_faults

        return run_faults(**shape)
    if name == "fanin_4c_toggler":
        from repro.experiments.fanin import run_fanin

        return run_fanin(shape, with_toggler=True)
    if name == "decomposition":
        from repro.experiments.decomposition import run_decomposition

        return run_decomposition(**shape)
    raise KeyError(name)


def run_experiment_sharded(name: str, shards: int, workers: int = 1):
    """A shape run across ``shards`` (and ``workers``).

    ``bottleneck_4f`` must reproduce its :data:`GOLDEN_EXPERIMENTS`
    digest; ``fanin_4c`` runs the decomposed fan-in (per-connection
    server replicas), a different scenario from the monolithic run,
    pinned by :data:`GOLDEN_FANIN_SHARDED`.
    """
    shape = experiment_shapes()[name]
    if name == "fanin_4c":
        from repro.experiments.fanin import run_fanin_sharded

        return run_fanin_sharded(shape, shards=shards, workers=workers)
    if name == "bottleneck_4f":
        from repro.experiments.bottleneck import run_shared_bottleneck

        return run_shared_bottleneck(shape, shards=shards, workers=workers)
    raise KeyError(f"no sharded variant for {name!r}")


def run_instrumented(config: BenchConfig):
    """One run with every tracing layer on; returns (result, records).

    Exercises the "instrumentation on" flavor of every guarded hot-path
    emit site: the unified tracer (the TCP taps included) and deep
    per-socket protocol hooks.
    """
    from repro.obs import Tracer, attach_deep_tracing

    tracer = Tracer(label="equivalence")

    def tweak(bed):
        attach_deep_tracing(bed, tracer)

    result = run_benchmark(config, tweak=tweak, tracer=tracer)
    return result, list(tracer.records)


def dense_config() -> BenchConfig:
    """The ``dense_4c`` shape: four connections sampled every 5 us.

    The other shapes sample every 10 ms, so their digests cover a few
    counter rows each; this one takes 2,002 samples of 24 queues, with
    same-instant ties between ticks and queue changes on every side.
    """
    return replace(
        fig2_config(vm=True, nagle=True, seed=1, measure_ns=msecs(10)),
        warmup_ns=msecs(10),
        connections=4,
        counter_period_ns=usecs(5),
    )


def run_dense(traced: bool) -> dict[str, str]:
    """Digests of one ``dense_4c`` run, shaped like :data:`GOLDEN_DENSE`.

    ``samples`` covers every collector's materialized
    :class:`~repro.analysis.counters.CounterSample` series and ``dump``
    the post-run :func:`~repro.analysis.dump.dump_testbed` counters
    (the raw queue states ``repro run --dump-counters`` prints).  A
    traced run (every tracing layer on) adds the ``trace`` digest.
    """
    from repro.analysis.dump import dump_testbed
    from repro.obs import Tracer, attach_deep_tracing

    tracer = Tracer(label="equivalence") if traced else None
    held = {}

    def tweak(bed):
        held["bed"] = bed
        if traced:
            attach_deep_tracing(bed, tracer)

    run_benchmark(dense_config(), tweak=tweak, tracer=tracer)
    bed = held["bed"]
    out = {
        "samples": digest([conn.collector.samples for conn in bed.conns]),
        "dump": digest(dump_testbed(bed)),
    }
    if traced:
        out["trace"] = digest(list(tracer.records))
    return out


def current_digests() -> dict[str, dict[str, str]]:
    """Digests of the current tree, shaped like the committed goldens."""
    out: dict[str, dict[str, str]] = {}
    for name, config in equivalence_configs().items():
        plain = run_plain(config)
        instrumented, records = run_instrumented(config)
        out[name] = {
            "result": digest(plain),
            "result_instrumented": digest(instrumented),
            "trace": digest(records),
        }
    return out


def current_experiment_digests() -> dict[str, str]:
    """Experiment-shape digests of the current tree."""
    return {name: digest(run_experiment(name)) for name in experiment_shapes()}


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2))
    print(json.dumps(current_experiment_digests(), indent=2))
    print(json.dumps({"dense_4c": run_dense(traced=True)}, indent=2))
