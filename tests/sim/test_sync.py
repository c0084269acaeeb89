"""The conservative time-window engine's determinism contract.

The toy scenario is a message ring: component 0 seeds a token that hops
to the next component with one lookahead of latency per hop, and every
component logs what it received.  The log — and the engine's own
window/exchange counts — must be byte-identical for every
``(shards, workers)`` combination, which is the same contract the
shared-bottleneck experiment relies on at full scale.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
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
from repro.supervise import SupervisePolicy


# ---------------------------------------------------------------------------
# WindowPlan: the schedule is a function of (horizon, lookahead) only.
# ---------------------------------------------------------------------------


def test_window_ends_tile_the_horizon():
    assert WindowPlan(100, 30).window_ends() == (30, 60, 90, 100)
    assert WindowPlan(90, 30).window_ends() == (30, 60, 90)
    assert WindowPlan(100, 1).window_ends() == tuple(range(1, 101))


def test_infinite_or_oversized_lookahead_is_one_window():
    assert WindowPlan(100).window_ends() == (100,)
    assert WindowPlan(100, None).window_ends() == (100,)
    assert WindowPlan(100, 100).window_ends() == (100,)
    assert WindowPlan(100, 250).window_ends() == (100,)


def test_window_plan_rejects_degenerate_inputs():
    with pytest.raises(WorkloadError):
        WindowPlan(0, 10)
    with pytest.raises(WorkloadError):
        WindowPlan(-5)
    with pytest.raises(WorkloadError):
        WindowPlan(100, 0)
    with pytest.raises(WorkloadError):
        WindowPlan(100, -1)


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
# The toy ring (module-level: builders must pickle for workers > 1).
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


def test_ring_is_byte_identical_across_shards_and_workers(monkeypatch):
    # A coupled run executes as one job in this process: no shard or
    # worker count may start a worker process.
    def no_pool(*args, **kwargs):
        raise AssertionError("a coupled run started a worker pool")

    monkeypatch.setattr(
        "repro.supervise.supervisor.ProcessPoolExecutor", no_pool
    )
    count = 3
    plan = WindowPlan(_HORIZON, _LOOKAHEAD)
    reference = run_windowed(partial(_build_ring, count), count, plan)
    # The token visits every component; the log is non-trivial.
    assert sum(len(log) for log in reference.results) == _HOPS
    assert reference.windows == len(plan.window_ends())
    assert reference.exchanged_events >= _HOPS
    for shards, workers in ((2, 1), (3, 1), (2, 2)):
        run = run_windowed(
            partial(_build_ring, count), count, plan,
            shards=shards, workers=workers,
        )
        assert run.results == reference.results, (shards, workers)
        assert run.windows == reference.windows
        assert run.exchanged_events == reference.exchanged_events
        assert run.events_executed == reference.events_executed


def test_single_window_degenerates_to_shard_map(monkeypatch):
    # Infinite lookahead: one window, no exchange traffic at all (the
    # ring never gets to hop because everything arrives post-horizon),
    # so the components split into one pooled job per shard.
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(
        "repro.supervise.supervisor.ProcessPoolExecutor", CountingPool
    )
    count = 3
    run = run_windowed(
        partial(_build_ring, count), count, WindowPlan(_HORIZON),
        shards=3, workers=2,
    )
    assert run.windows == 1
    assert len(submitted) == 3
    assert run.results == run_windowed(
        partial(_build_ring, count), count, WindowPlan(_HORIZON)
    ).results


def test_metrics_count_windows_and_exchanges(tmp_path):
    from repro.cache import ResultCache
    from repro.obs.tracer import Tracer

    count = 2
    plan = WindowPlan(60, _LOOKAHEAD)
    cache = ResultCache(tmp_path / "store")
    seen = []
    for _ in range(2):  # a fresh run, then the same run from the store
        metrics, tracer = MetricsRegistry(), Tracer()
        run = run_windowed(
            partial(_build_ring, count), count, plan,
            checkpoint=cache, tracer=tracer, metrics=metrics,
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
    assert seen[0] == seen[1]
    cache.close()


# ---------------------------------------------------------------------------
# Recovery: a split run's jobs are retried and checkpointed one by one.
# ---------------------------------------------------------------------------

_FAST = SupervisePolicy(backoff_base_s=0.0, backoff_max_s=0.0)
_RING = 3


class _CrashingRingComponent(_RingComponent):
    """Component 1 hard-exits its worker once, in its first window."""

    def __init__(self, index: int, count: int, marker):
        super().__init__(index, count)
        self.marker = marker

    def advance(self, until_ns: int):
        if self.index == 1 and not self.marker.exists():
            self.marker.write_text("crashed")
            os._exit(1)
        return super().advance(until_ns)


def _build_crashing_ring(count: int, marker, index: int):
    return _CrashingRingComponent(index, count, marker)


def _split_ring(builder=None, checkpoint=None, workers=2) -> list:
    """The ring at infinite lookahead on 2 shards: its results."""
    return run_windowed(
        builder or partial(_build_ring, _RING), _RING, WindowPlan(_HORIZON),
        shards=2, workers=workers, policy=_FAST, checkpoint=checkpoint,
    ).results


def _stored(directory) -> list[dict]:
    """Every result record in a checkpoint directory, in write order."""
    return [
        record
        for path in sorted(directory.glob("shard-*.jsonl"))
        for record in map(json.loads, path.read_text().splitlines())
        if record.get("kind") == "result"
    ]


def test_worker_crash_retries_its_shard(tmp_path):
    marker = tmp_path / "crashed"
    results = _split_ring(
        partial(_build_crashing_ring, _RING, marker),
        checkpoint=tmp_path / "store",
    )
    assert marker.exists()  # the worker really died mid-run
    assert results == run_windowed(
        partial(_build_ring, _RING), _RING, WindowPlan(_HORIZON)
    ).results
    # Component 1 is shard 2 of 2; its job ran twice.
    attempts = {r["label"]: r["attempts"] for r in _stored(tmp_path / "store")}
    assert attempts["sync shard 2/2"] == 2


@pytest.mark.parametrize("partial_window", [False, True])
def test_resume_from_a_cut_store_matches_serial(tmp_path, partial_window):
    # The one window splits into two shard jobs, each stored whole.  Cut
    # the store to its header (stopped before either shard replied) or to
    # one shard's reply (stopped mid-window): the resumed run reruns only
    # the shards the store lacks.
    from repro.cache import ResultCache

    store = tmp_path / "store"
    _split_ring(checkpoint=store, workers=1)
    (path,) = store.glob("shard-*.jsonl")
    header, *replies = path.read_text().splitlines()
    assert len(replies) == 2
    kept = replies[: int(partial_window)]
    path.write_text("\n".join([header, *kept]) + "\n")
    cache = ResultCache(store)
    assert _split_ring(checkpoint=cache) == run_windowed(
        partial(_build_ring, _RING), _RING, WindowPlan(_HORIZON)
    ).results
    rerun = len(replies) - len(kept)
    assert (cache.hits, cache.misses, cache.stores) == (
        len(kept), rerun, rerun,
    )
    cache.close()
    labels = [r["label"] for r in _stored(store)]
    assert labels[: len(kept)] == [json.loads(r)["label"] for r in kept]
    assert sorted(labels) == sorted(json.loads(r)["label"] for r in replies)


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
        run_windowed(_build_cheater, 2, WindowPlan(40, 10), shards=2)
    assert "lookahead violation" in str(excinfo.value)
