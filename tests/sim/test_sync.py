"""The conservative time-window engine's determinism contract.

The toy scenario is a message ring: component 0 seeds a token that hops
to the next component with one lookahead of latency per hop, and every
component logs what it received.  The log — and the engine's own
window/exchange counts — must come out the same on every run, direct,
supervised into a checkpoint or replayed from it, which is the contract
the shared-bottleneck experiment relies on at full scale.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.errors import CampaignError, WorkloadError
from repro.obs.metrics import MetricsRegistry
from repro.sim.sync import (
    Mailbox,
    SyncComponent,
    SyncMessage,
    WindowPlan,
    run_windowed,
)


# ---------------------------------------------------------------------------
# WindowPlan: the schedule is a function of (horizon, lookahead) only.
# ---------------------------------------------------------------------------


def test_window_ends_tile_the_horizon():
    assert WindowPlan(100, 30).window_ends() == (30, 60, 90, 100)
    assert WindowPlan(90, 30).window_ends() == (30, 60, 90)
    assert WindowPlan(100, 1).window_ends() == tuple(range(1, 101))
    # A lookahead at or past the horizon is one window.
    assert WindowPlan(100, 100).window_ends() == (100,)
    assert WindowPlan(100, 250).window_ends() == (100,)


def test_window_plan_rejects_degenerate_inputs():
    with pytest.raises(WorkloadError):
        WindowPlan(0, 10)
    with pytest.raises(WorkloadError):
        WindowPlan(-5, 10)
    with pytest.raises(WorkloadError):
        WindowPlan(100, 0)
    with pytest.raises(WorkloadError):
        WindowPlan(100, -1)
    with pytest.raises(WorkloadError):
        WindowPlan(100, None)


# ---------------------------------------------------------------------------
# Mailbox: per-source sequence numbers in post order.
# ---------------------------------------------------------------------------


def test_mailbox_sequences_and_drains():
    box = Mailbox(src=3)
    box.post(100, 1, "a")
    box.post(50, 2, "b")  # earlier arrival still gets the later sequence
    drained = box.drain()
    assert [(m.arrival_ns, m.src, m.dst, m.sequence, m.payload)
            for m in drained] == [(100, 3, 1, 0, "a"), (50, 3, 2, 1, "b")]
    assert drained[0].key == (100, 3, 0)
    assert box.drain() == []


# ---------------------------------------------------------------------------
# The toy ring (module-level: a builder must pickle when a store keys it).
# ---------------------------------------------------------------------------

_HOPS = 17
_LOOKAHEAD = 10
_HORIZON = 400


class _RingComponent(SyncComponent):
    """Passes a counter token around the ring, one lookahead per hop."""

    def __init__(self, index: int, count: int):
        self.index = index
        self.count = count
        self.log: list[tuple[int, int, int]] = []
        self._outbox: list[tuple[int, int, object]] = []
        self._events = 0

    def _send(self, arrival_ns: int, payload: int) -> None:
        self._outbox.append(
            (arrival_ns, (self.index + 1) % self.count, payload)
        )

    def deliver(self, message: SyncMessage) -> None:
        self.log.append((message.arrival_ns, message.src, message.payload))
        self._events += 1
        if message.payload < _HOPS:
            self._send(message.arrival_ns + _LOOKAHEAD, message.payload + 1)

    def advance(self, until_ns: int):
        if self.index == 0 and until_ns >= _LOOKAHEAD and not self._events \
                and not self.log:
            # Seed once: the token leaves component 0 in the first window.
            self._send(until_ns + _LOOKAHEAD, 1)
            self._events = 1
        box = Mailbox(self.index)
        for arrival_ns, dst, payload in self._outbox:
            box.post(arrival_ns, dst, payload)
        self._outbox = []
        return box.drain()

    def events_executed(self) -> int:
        return self._events

    def finish(self):
        return tuple(self.log)


def _build_ring(count: int, index: int) -> _RingComponent:
    return _RingComponent(index, count)


def test_ring_runs_in_process_and_repeats_exactly(monkeypatch):
    # A coupled run executes as one job in this process: it may not
    # start a worker process, and a second run repeats it exactly.
    def no_pool(*args, **kwargs):
        raise AssertionError("a coupled run started a worker pool")

    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor", no_pool
    )
    count = 3
    plan = WindowPlan(_HORIZON, _LOOKAHEAD)
    reference = run_windowed(partial(_build_ring, count), count, plan)
    # The token visits every component; the log is non-trivial.
    assert sum(len(log) for log in reference.results) == _HOPS
    assert reference.windows == len(plan.window_ends())
    assert reference.exchanged_events >= _HOPS
    assert run_windowed(partial(_build_ring, count), count, plan) == reference


def test_metrics_count_windows_and_exchanges(tmp_path):
    from repro.supervise import CheckpointStore
    from repro.obs.tracer import Tracer

    count = 2
    plan = WindowPlan(60, _LOOKAHEAD)
    cache = CheckpointStore(tmp_path / "store")
    seen = []
    # A direct run without a store, a supervised run into the store, and
    # the same run replayed from it.
    for checkpoint in (None, cache, cache):
        metrics, tracer = MetricsRegistry(), Tracer()
        run = run_windowed(
            partial(_build_ring, count), count, plan,
            checkpoint=checkpoint, tracer=tracer, metrics=metrics,
        )
        counters = metrics.snapshot()["counters"]
        assert counters["sim.sync.windows"] == run.windows
        assert counters["sim.sync.exchanged_events"] == run.exchanged_events
        windows = [r for r in tracer.records if r["type"] == "shard.window"]
        assert [r["window"] for r in windows] == list(
            range(1, run.windows + 1)
        )
        assert sum(r["exchanged"] for r in windows) == run.exchanged_events
        seen.append((run, counters, windows))
    assert (cache.hits, cache.misses) == (1, 1)
    assert seen[0] == seen[1] == seen[2]
    cache.close()


class _CheatingComponent(SyncComponent):
    """Emits a message arriving inside its own window."""

    def __init__(self, index: int):
        self.index = index

    def deliver(self, message):  # pragma: no cover - never reached
        raise AssertionError

    def advance(self, until_ns: int):
        box = Mailbox(self.index)
        box.post(until_ns, (self.index + 1) % 2, "too-soon")
        return box.drain()

    def finish(self):
        return None


def _build_cheater(index: int) -> _CheatingComponent:
    return _CheatingComponent(index)


def test_lookahead_violation_is_rejected():
    with pytest.raises((WorkloadError, CampaignError)) as excinfo:
        run_windowed(_build_cheater, 2, WindowPlan(40, 10))
    assert "lookahead violation" in str(excinfo.value)
