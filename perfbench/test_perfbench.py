"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger  # noqa: E402

DIGEST = "a" * 64


def test_perturbed_digest_counts_as_failure():
    checker = run.Checker({0: DIGEST}, environ={})
    assert checker.check(DIGEST)
    assert not checker.check(DIGEST[:-1] + "b")
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.failed_frac == 0.5


def test_raised_run_counts_as_failure():
    checker = run.Checker({0: DIGEST}, environ={})
    checker.error(RuntimeError("boom"))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "RuntimeError: boom" in checker.reasons


def test_inherited_backend_fails_every_run():
    checker = run.Checker({0: DIGEST}, environ={"REPRO_BACKEND": "numpy"})
    assert not checker.check(DIGEST)
    assert checker.failed == 1


def test_held_out_seed_requires_repeatable_digest():
    checker = run.Checker(None, environ={})
    assert checker.check(DIGEST)
    assert not checker.check("b" * 64)
    assert checker.check("b" * 64, index=1)  # another sub-seed's own
    assert not checker.check(DIGEST, index=1)


def test_subseeds_start_at_the_seed_and_stay_apart():
    seeds = [workloads.subseed(7, i) for i in range(workloads.SUBSEEDS)]
    assert seeds[0] == 7
    assert len(set(seeds)) == workloads.SUBSEEDS


def test_forked_run_returns_value_and_memory():
    value, rss, _ = run.in_child(lambda: [0] * 4_000_000)
    assert len(value) == 4_000_000
    assert rss > 30  # the child's 32 MB list counts, this process's not


def test_forked_run_that_raises_is_reported():
    try:
        run.in_child(lambda: 1 / 0)
    except run.ChildFailed as exc:
        assert "ZeroDivisionError" in str(exc)
    else:
        raise AssertionError("no ChildFailed")


def test_benchmark_json_declares_what_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        run.PER_LAYER
    )
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workloads.WHY[name] for name in workloads.WORKLOADS
    }


def test_estimate_err_matches_a_direct_run():
    from repro.loadgen.lancet import run_benchmark

    workload = workloads.WORKLOADS["fig2_point"]
    config = workload.config(workload.default_seed)
    direct = run_benchmark(config)
    measured = direct.send_latency.mean_ns
    expected = abs(direct.estimate.latency_ns - measured) / measured * 100
    rep = workload.run_once(config)
    assert rep.estimate_err_pct == expected
    assert rep.digest == workloads.digest(direct)


def _short_fig2():
    workload = workloads.WORKLOADS["fig2_point"]
    return workload, replace(workload.config(1), measure_ns=10_000_000)


def test_traced_run_keeps_digest_and_accounts_for_all_time():
    workload, config = _short_fig2()
    untraced = workload.run_once(config)
    ledger = Ledger()
    try:
        ledger.install()
        traced = workload.run_once(config)
    finally:
        ledger.uninstall()
    assert traced.digest == untraced.digest
    self_s = ledger.self_times(traced.wall_s)
    assert abs(sum(self_s.values()) - traced.wall_s) < 1e-9
    assert all(seconds >= 0 for seconds in self_s.values())
    assert sum(ledger.callbacks) == traced.facts["sim.events"]
    assert ledger.counts["net.tso_splits"][0] > 0
    assert ledger.counts["core.track_calls"][0] > 0


def test_uninstall_restores_every_binding():
    from repro.net import packet
    from repro.sim.loop import Simulator
    from repro.tcp import socket

    before = (Simulator.call_at, packet.acquire_packet, socket.acquire_packet)
    ledger = Ledger()
    ledger.install()
    assert socket.acquire_packet is packet.acquire_packet
    assert socket.acquire_packet is not before[1]
    ledger.uninstall()
    assert (Simulator.call_at, packet.acquire_packet,
            socket.acquire_packet) == before
