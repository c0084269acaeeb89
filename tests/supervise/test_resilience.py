"""Pooled-mode resilience: crashes, hangs, and the determinism guarantee.

These tests inject real faults — SIGKILLed workers, hung jobs — into a
live process pool and assert the supervisor recovers *and* that the
recovered campaign's output is byte-identical to a fault-free serial
run.  They are the regression net for the paper-reproduction invariant:
supervision must never change results, only availability.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import pytest

from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.parallel import ParallelRunner, run_campaign
from repro.supervise import (
    KIND_TIMEOUT,
    SupervisePolicy,
    Supervisor,
)
from repro.units import msecs

#: Backoff-free, fast-polling policy so fault tests stay quick.
FAST = SupervisePolicy(
    backoff_base_s=0.0, backoff_max_s=0.0, poll_interval_s=0.02
)


def _crash_once(payload):
    """SIGKILL the worker on the first attempt; succeed on the second."""
    marker, x = payload
    if not marker.exists():
        marker.write_text("crashing")
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 100


def _plus_300(x):
    return x + 300


def _hang_forever(x):
    time.sleep(120)
    return x  # pragma: no cover


def _hang_once(payload):
    """Hang past any timeout on the first attempt, return on the second."""
    marker, x = payload
    if not marker.exists():
        marker.write_text("hanging")
        time.sleep(120)
    return x + 200


@dataclass(frozen=True)
class _CrashOnceTweak:
    """A picklable tweak that SIGKILLs the worker once per config.

    The marker is keyed by the config's seed, so each job crashes on
    exactly its first attempt and runs untouched on the retry — the
    retried run must then be byte-identical to a never-crashed one.
    """

    marker_dir: str

    def __call__(self, bed) -> None:
        marker = os.path.join(
            self.marker_dir, f"seed-{bed.config.seed}"
        )
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("crashing")
            os.kill(os.getpid(), signal.SIGKILL)


class TestCrashRecovery:
    def test_killed_workers_recovered_on_fresh_pool(self, tmp_path):
        supervisor = Supervisor(workers=2, policy=FAST)
        payloads = [(tmp_path / f"m{i}", i) for i in range(3)]
        outcomes = supervisor.run(_crash_once, payloads)
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.result for o in outcomes] == [100, 101, 102]
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.crashes"] >= 3
        assert counters["supervise.pool_restarts"] >= 1
        assert counters.get("supervise.quarantined", 0) == 0


    def test_pool_broken_at_submit_is_rebuilt(self, monkeypatch):
        # A worker can die after futures_wait returned and before its
        # future lands in ``done``; the next submit to that pool then
        # raises.  The job it was handed never ran, so it is requeued
        # without a strike and dispatched again on a fresh pool.
        raised = []

        class BreaksOnceAtSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                if not raised:
                    raised.append(True)
                    raise BrokenProcessPool("a worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor",
            BreaksOnceAtSubmit,
        )
        supervisor = Supervisor(workers=2, policy=FAST)
        outcomes = supervisor.run(_plus_300, [1, 2, 3])
        assert raised == [True]
        assert [o.result for o in outcomes] == [301, 302, 303]
        assert [o.attempts for o in outcomes] == [1, 1, 1]
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.pool_restarts"] == 1
        assert counters.get("supervise.crashes", 0) == 0
        assert counters.get("supervise.retries", 0) == 0


class TestTimeouts:
    def test_hung_jobs_killed_and_retried(self, tmp_path):
        policy = SupervisePolicy(
            job_timeout_s=0.5, poll_interval_s=0.02,
            backoff_base_s=0.0, backoff_max_s=0.0,
        )
        # Two jobs so the run is pooled: a single job drops to serial
        # mode, where there is no second process to enforce a timeout.
        supervisor = Supervisor(workers=2, policy=policy)
        outcomes = supervisor.run(
            _hang_once, [(tmp_path / "m0", 5), (tmp_path / "m1", 6)]
        )
        assert [o.ok for o in outcomes] == [True, True]
        assert [o.result for o in outcomes] == [205, 206]
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.timeouts"] == 2

    def test_jobs_dispatched_together_share_one_deadline(
        self, tmp_path, monkeypatch
    ):
        # Submits slower than a poll interval (a busy box, or the fork
        # inside a fresh pool's first submit) must not skew sibling
        # deadlines: a poll between them would time out the first hung
        # job and requeue the second, hung as well, as innocent.
        class SlowSubmitPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                time.sleep(0.1)
                return future

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", SlowSubmitPool
        )
        policy = SupervisePolicy(
            job_timeout_s=0.5, poll_interval_s=0.02,
            backoff_base_s=0.0, backoff_max_s=0.0,
        )
        supervisor = Supervisor(workers=2, policy=policy)
        outcomes = supervisor.run(
            _hang_once, [(tmp_path / "m0", 5), (tmp_path / "m1", 6)]
        )
        assert [o.result for o in outcomes] == [205, 206]
        assert [o.attempts for o in outcomes] == [2, 2]
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.timeouts"] == 2

    def test_always_hung_job_quarantined_as_timeout(self):
        policy = SupervisePolicy(
            max_attempts=2, job_timeout_s=0.3, poll_interval_s=0.02,
            backoff_base_s=0.0, backoff_max_s=0.0,
        )
        supervisor = Supervisor(workers=2, policy=policy)
        outcomes = supervisor.run(_hang_forever, [1, 2])
        assert all(not o.ok for o in outcomes)
        assert all(o.kind == KIND_TIMEOUT for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert "wall-clock budget" in outcomes[0].message


class TestDeterminismUnderFaults:
    """The headline invariant: faults never change campaign output."""

    def test_crash_injected_campaign_matches_fault_free_serial(self, tmp_path):
        configs = [
            BenchConfig(
                rate_per_sec=9_000.0, warmup_ns=msecs(2),
                measure_ns=msecs(5), seed=seed,
            )
            for seed in (1, 2)
        ]
        serial = [run_benchmark(config) for config in configs]

        tweak = _CrashOnceTweak(str(tmp_path))
        faulted = run_campaign(
            configs, tweak=tweak, workers=2,
            policy=SupervisePolicy(
                backoff_base_s=0.0, backoff_max_s=0.0, poll_interval_s=0.02
            ),
        )
        # Every config crashed its worker exactly once...
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "seed-1", "seed-2"
        ]
        # ...and the recovered output is identical to the fault-free run.
        assert faulted == serial

    def test_resumed_campaign_matches_uninterrupted(self, tmp_path):
        configs = [
            BenchConfig(
                rate_per_sec=9_000.0, warmup_ns=msecs(2),
                measure_ns=msecs(5), seed=seed,
            )
            for seed in (1, 2, 3)
        ]
        uninterrupted = run_campaign(configs)

        # First campaign completes only a prefix (simulating a kill by
        # slicing), the second resumes the rest from the same directory.
        ckpt = tmp_path / "ckpt"
        run_campaign(configs[:1], checkpoint=ckpt)
        resumed = run_campaign(configs, checkpoint=ckpt)
        assert resumed == uninterrupted

        runner = ParallelRunner(workers=1)
        outcomes = runner.run_many_outcomes(configs, checkpoint=ckpt)
        assert all(o.from_checkpoint for o in outcomes)
