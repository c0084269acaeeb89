"""PoolLease: pinned worker slots shared across consecutive supervised runs."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.supervise import PoolLease, SupervisePolicy, Supervisor

FAST = SupervisePolicy(backoff_base_s=0.0, backoff_max_s=0.0)


def _worker_pid(x):
    return (x, os.getpid())


def _slow_pid(x):
    # Long enough that an unpinned pool hands jobs to whichever worker
    # is free first, not to the same worker every time.
    time.sleep(0.02)
    return (x, os.getpid())


def _crash_until_marker(payload):
    """Kill the worker process outright until a marker file exists."""
    marker, x = payload
    if not marker.exists():
        marker.write_text("seen")
        os._exit(1)
    return x * 10


def _fail_first_job_once(payload):
    """Job 0 crashes or hangs its worker once; every job reports its pid."""
    marker, fault, x = payload
    if x == 0 and not marker.exists():
        marker.write_text("seen")
        if fault == "crash":
            os._exit(1)
        time.sleep(120)  # past any deadline: the supervisor kills it
    return (x, os.getpid())


def _pids(outcomes) -> list[int]:
    assert all(o.ok for o in outcomes)
    return [o.result[1] for o in outcomes]


class TestPoolLease:
    def test_reused_across_consecutive_runs(self):
        with PoolLease() as lease:
            first = Supervisor(workers=2, policy=FAST, pool=lease).run(
                _worker_pid, [1, 2, 3, 4]
            )
            ctx = multiprocessing.get_context()
            slots = [lease.executor(ctx, slot) for slot in (0, 1)]
            second = Supervisor(workers=2, policy=FAST, pool=lease).run(
                _worker_pid, [5, 6, 7, 8]
            )
            # The run's finally left both slots alive and the next run
            # used them: same pools, same worker processes.
            assert all(lease.owns(executor) for executor in slots)
            assert set(_pids(first)) == set(_pids(second))
        # __exit__ closed every slot.
        assert not any(lease.owns(executor) for executor in slots)

    def test_job_i_runs_in_the_same_worker_every_run(self):
        with PoolLease() as lease:
            runs = [
                _pids(Supervisor(workers=2, policy=FAST, pool=lease).run(
                    _slow_pid, [0, 1, 2, 3]
                ))
                for _ in range(5)
            ]
        for pids in runs:
            # Job i sits on slot i mod 2: two workers, alternating.
            assert pids[0] == pids[2] != pids[1] == pids[3]
        assert all(pids == runs[0] for pids in runs)

    def test_grows_but_never_shrinks(self):
        ctx = multiprocessing.get_context()
        with PoolLease() as lease:
            small = lease.executor(ctx, 0)
            assert lease.executor(ctx, 0) is small
            extra = lease.executor(ctx, 1)
            assert extra is not small
            # A run that needs fewer slots keeps the extra one alive.
            assert lease.executor(ctx, 0) is small
            assert lease.owns(small) and lease.owns(extra)

    def test_discard_forces_a_fresh_pool(self):
        ctx = multiprocessing.get_context()
        with PoolLease() as lease:
            first = lease.executor(ctx, 0)
            other = lease.executor(ctx, 1)
            assert lease.owns(first)
            lease.discard(first)
            assert not lease.owns(first)
            assert lease.owns(other)  # only the discarded slot went
            second = lease.executor(ctx, 0)
            assert second is not first
            assert lease.executor(ctx, 1) is other

    def test_crashed_worker_poisons_the_lease_not_the_results(
        self, tmp_path
    ):
        # A worker hard-exit breaks its slot; the supervisor must
        # discard that leased executor (never reuse a poisoned pool),
        # rebuild it through the lease, and still deliver every result.
        with PoolLease() as lease:
            supervisor = Supervisor(workers=2, policy=FAST, pool=lease)
            outcomes = supervisor.run(
                _crash_until_marker,
                [(tmp_path / "m1", 1), (tmp_path / "m2", 2)],
            )
            assert [o.ok for o in outcomes] == [True, True]
            assert sorted(o.result for o in outcomes) == [10, 20]
            # The lease is live again for the next run.
            follow_up = Supervisor(workers=2, policy=FAST, pool=lease).run(
                _worker_pid, [9]
            )
            assert follow_up[0].ok

    @pytest.mark.parametrize("fault", ["crash", "hang"])
    def test_fault_replaces_only_its_own_slot(self, tmp_path, fault):
        marker = tmp_path / "faulted"
        policy = SupervisePolicy(
            backoff_base_s=0.0, backoff_max_s=0.0,
            job_timeout_s=1.0, poll_interval_s=0.02,
        )
        with PoolLease() as lease:
            before = _pids(Supervisor(workers=2, policy=policy, pool=lease)
                           .run(_worker_pid, [0, 1]))
            supervisor = Supervisor(workers=2, policy=policy, pool=lease)
            _pids(supervisor.run(
                _fail_first_job_once,
                [(marker, fault, 0), (marker, fault, 1)],
            ))
            after = _pids(Supervisor(workers=2, policy=policy, pool=lease)
                          .run(_worker_pid, [0, 1]))
        assert marker.exists()
        assert supervisor.metrics.snapshot()["counters"][
            "supervise.pool_restarts"
        ] == 1
        assert after[0] != before[0]  # slot 0 got a fresh worker
        assert after[1] == before[1]  # slot 1 kept its worker
