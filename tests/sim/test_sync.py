"""The conservative time-window engine's determinism contract.

The toy scenario is a message ring: component 0 seeds a token that hops
to the next component with one lookahead of latency per hop, and every
component logs what it received.  The log — and the engine's own
window/exchange counts — must be byte-identical for every
``(shards, workers)`` combination, which is the same contract the
shared-bottleneck experiment relies on at full scale.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from functools import partial

import pytest

from repro.errors import CampaignError, WorkloadError
from repro.obs.metrics import MetricsRegistry
from repro.sim.sync import (
    COLD,
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


def test_ring_is_byte_identical_across_shards_and_workers():
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


def test_single_window_degenerates_to_shard_map():
    # Infinite lookahead: one window, no exchange traffic at all (the
    # ring never gets to hop because everything arrives post-horizon).
    count = 3
    run = run_windowed(
        partial(_build_ring, count), count, WindowPlan(_HORIZON), shards=3
    )
    assert run.windows == 1


def test_metrics_count_windows_and_exchanges():
    from repro.obs.metrics import MetricsRegistry

    count = 2
    plan = WindowPlan(60, _LOOKAHEAD)
    metrics = MetricsRegistry()
    run = run_windowed(
        partial(_build_ring, count), count, plan, metrics=metrics
    )
    counters = metrics.snapshot()["counters"]
    assert counters["sim.sync.windows"] == run.windows
    assert counters["sim.sync.exchanged_events"] == run.exchanged_events


# ---------------------------------------------------------------------------
# Recovery: pinned workers, delta inboxes and the cold re-send.
# ---------------------------------------------------------------------------

_FAST = SupervisePolicy(backoff_base_s=0.0, backoff_max_s=0.0)
_RING = 3
_CRASH_AT = 6 * _LOOKAHEAD  # the end of window 6


class _CrashingRingComponent(_RingComponent):
    """Component 1 hard-exits its worker once, at one window end."""

    def __init__(self, index: int, count: int, marker):
        super().__init__(index, count)
        self.marker = marker

    def advance(self, until_ns: int):
        if (
            self.index == 1 and until_ns == _CRASH_AT
            and not self.marker.exists()
        ):
            self.marker.write_text("crashed")
            os._exit(1)
        return super().advance(until_ns)


def _build_crashing_ring(count: int, marker, index: int):
    return _CrashingRingComponent(index, count, marker)


def _serial_ring() -> list:
    plan = WindowPlan(_HORIZON, _LOOKAHEAD)
    return run_windowed(partial(_build_ring, _RING), _RING, plan).results


def _ring_2x2(builder=None, checkpoint=None):
    """The ring on 2 shards x 2 workers: (results, replays)."""
    metrics = MetricsRegistry()
    run = run_windowed(
        builder or partial(_build_ring, _RING), _RING,
        WindowPlan(_HORIZON, _LOOKAHEAD), shards=2, workers=2,
        policy=_FAST, checkpoint=checkpoint, metrics=metrics,
    )
    return run.results, metrics.snapshot()["counters"]["sim.sync.replays"]


def _stored_replies(directory) -> list:
    """Every result record in a checkpoint directory, unpickled."""
    replies = []
    for path in sorted(directory.glob("shard-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "result":
                replies.append(
                    pickle.loads(base64.b64decode(record["payload"]))
                )
    return replies


def _assert_no_cold_stored(directory) -> None:
    replies = _stored_replies(directory)
    assert replies
    for reply in replies:
        assert reply != COLD
        # A real window's reply: (outbox, finals or None, events).
        assert isinstance(reply, tuple) and len(reply) == 3


def test_healthy_pinned_run_never_replays():
    results, replays = _ring_2x2()
    assert replays == 0
    assert results == _serial_ring()


def test_worker_crash_replays_the_shard_once(tmp_path):
    marker = tmp_path / "crashed"
    results, replays = _ring_2x2(
        partial(_build_crashing_ring, _RING, marker),
        checkpoint=tmp_path / "store",
    )
    assert marker.exists()  # the worker really died mid-run
    # The re-send lands on the crashed shard's own (fresh) slot, which
    # stays warm from then on: one replay, not one per later window.
    assert replays == 1
    assert results == _serial_ring()
    _assert_no_cold_stored(tmp_path / "store")


@pytest.mark.parametrize("partial_window", [False, True])
def test_resume_from_a_cut_store_matches_serial(tmp_path, partial_window):
    store = tmp_path / "store"
    _ring_2x2(checkpoint=store)
    (path,) = store.glob("shard-*.jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * len(WindowPlan(_HORIZON, _LOOKAHEAD)
                                     .window_ends())
    # Keep the header and windows 0..k-1 (two shards each), plus one
    # shard of window k for a partially stored window.
    k = 9
    path.write_text("\n".join(lines[: 1 + 2 * k + partial_window]) + "\n")
    results, replays = _ring_2x2(checkpoint=store)
    assert results == _serial_ring()
    # The first live window finds both fresh workers cold.
    assert replays == 2
    _assert_no_cold_stored(store)


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
