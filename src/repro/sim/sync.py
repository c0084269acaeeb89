"""Conservative cross-shard simulation: lock-stepped time windows.

:mod:`repro.sim.shard` parallelizes a run only when its components never
talk to each other (the decomposed fan-in).  This module generalizes the
same determinism contract to topologies whose components *do* exchange
packets — many flows contending on one bottleneck link — with the
classic conservative parallel-DES recipe:

1. Cut the scenario into **components**, each owning its own
   :class:`~repro.sim.loop.Simulator`.  Every cut edge has a fixed
   minimum latency; the smallest such latency is the **lookahead**.
2. Advance all components in lock-stepped **windows** of one lookahead:
   within a window each component simulates locally and posts packets
   bound for other components into its typed :class:`Mailbox` — a
   posted message's arrival time is always *beyond* the window end, so
   nothing inside a window can be affected by a message generated in it.
3. At the window barrier, the coordinator collects every mailbox,
   orders the messages by the partition-free key ``(arrival timestamp,
   source component, per-source sequence)``, and routes each to its
   destination shard's inbox for the window it falls in.

The determinism contract extension
----------------------------------

The window schedule is a function of ``(horizon, lookahead)`` only —
never of the partition — and **every** inter-component message goes
through the exchange, co-located or not.  Each component therefore sees
the identical inbox in the identical order whether it shares a shard
(or a process) with its peers or not, so the run's output — and the
``sim.sync.windows`` / ``sim.sync.exchanged_events`` counts themselves
— are byte-identical for every ``(shards, workers)`` combination,
including the in-process serial run.  Components with no cross links
have infinite lookahead: the plan collapses to a single window and the
engine degenerates to the plain shard map, paying ~nothing for the sync
machinery (``benchmarks/perf_baseline.json``, ``cross_shard``).

Execution rides the supervised :class:`~repro.parallel.ParallelRunner`,
one supervised run per window under a :class:`~repro.supervise.PoolLease`
that pins shard ``s`` to worker slot ``s mod workers`` for the whole
run.  Each ``(shard, window)`` job therefore ships only that window's
inbox plus the rolling digest of the shard's earlier inboxes, and the
worker advances the components it kept warm in a module-level cache —
every window is incremental.  A worker whose cache disagrees with the
digest (a fresh slot after a crash, or the first live window after a
checkpoint resume) answers :data:`COLD` without simulating, and the
coordinator re-sends that shard with its full history, from which the
worker rebuilds it (:func:`_replay`): the one recovery path, so
retries, crashes, checkpoints and resume still compose with
byte-identical output.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from repro.errors import WorkloadError
from repro.sim.shard import ShardPlan


@dataclass(frozen=True)
class SyncMessage:
    """One cross-component message (a packet crossing a cut edge).

    ``sequence`` is the source component's emission counter; together
    with ``arrival_ns`` and ``src`` it forms the partition-free total
    order every exchange and delivery uses.
    """

    arrival_ns: int
    src: int
    dst: int
    sequence: int
    payload: object

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.arrival_ns, self.src, self.sequence)


class Mailbox:
    """A component's typed outbox of cross-component messages."""

    __slots__ = ("src", "_sequence", "_pending")

    def __init__(self, src: int):
        self.src = src
        self._sequence = 0
        self._pending: list[SyncMessage] = []

    def post(self, arrival_ns: int, dst: int, payload) -> None:
        """Queue ``payload`` for delivery to ``dst`` at ``arrival_ns``."""
        self._pending.append(
            SyncMessage(arrival_ns, self.src, dst, self._sequence, payload)
        )
        self._sequence += 1

    def drain(self) -> list[SyncMessage]:
        pending = self._pending
        self._pending = []
        return pending


class SyncComponent:
    """One cut piece of a scenario, owning its own sub-simulation.

    Subclasses set :attr:`index` (the global component index) and
    implement the window protocol; instances are built *inside* the
    worker by the picklable builder handed to :func:`run_windowed`, so
    they never cross a process boundary themselves.
    """

    index: int

    def deliver(self, message: SyncMessage) -> None:
        """Schedule an inbound message; called before :meth:`advance`
        for the window ``message.arrival_ns`` falls in, in exchange
        order."""
        raise NotImplementedError

    def advance(self, until_ns: int) -> list[SyncMessage]:
        """Simulate through ``until_ns`` inclusive; return the
        cross-component messages emitted during the window (every
        arrival strictly beyond ``until_ns``)."""
        raise NotImplementedError

    def events_executed(self) -> int:
        return 0

    def finish(self):
        """The component's result payload after the final window."""
        raise NotImplementedError


@dataclass(frozen=True)
class WindowPlan:
    """The lock-step schedule: a horizon cut into lookahead windows.

    ``lookahead_ns=None`` means no component pair exchanges messages
    (infinite lookahead): the whole horizon is one window.  The schedule
    depends only on these two numbers — never on the partition — which
    is what makes the exchange order partition-free.
    """

    horizon_ns: int
    lookahead_ns: int | None = None

    def __post_init__(self):
        if self.horizon_ns <= 0:
            raise WorkloadError(
                f"horizon must be positive, got {self.horizon_ns}"
            )
        if self.lookahead_ns is not None and self.lookahead_ns <= 0:
            raise WorkloadError(
                f"lookahead must be positive (or None), "
                f"got {self.lookahead_ns}"
            )

    def window_ends(self) -> tuple[int, ...]:
        """Window end times, ascending; the last equals the horizon."""
        lookahead = self.lookahead_ns
        if lookahead is None or lookahead >= self.horizon_ns:
            return (self.horizon_ns,)
        ends = list(range(lookahead, self.horizon_ns, lookahead))
        ends.append(self.horizon_ns)
        return tuple(ends)


@dataclass
class SyncRunResult:
    """What :func:`run_windowed` hands back to the experiment layer."""

    results: list            # component finish() payloads, index order
    windows: int             # lock-step windows executed
    exchanged_events: int    # messages through the cross-shard exchange
    events_executed: int     # kernel events across all sub-simulations


# ----------------------------------------------------------------------
# Worker side: advance one shard by one window.
# ----------------------------------------------------------------------

class _ShardState:
    """A worker process's warm copy of one shard's components."""

    __slots__ = ("components", "windows_done", "chain", "dirty")

    def __init__(self, components):
        self.components = components
        self.windows_done = 0
        self.chain = _CHAIN_SEED
        self.dirty = False


_CHAIN_SEED = "sync-v1"
#: (run token, component indices) -> warm state.  One entry per shard of
#: the *current* run; other runs' entries are evicted on first touch.
_STATE: dict[tuple, _ShardState] = {}


def _chain_digest(chain: str, deliveries: Sequence[SyncMessage]) -> str:
    """Extend the rolling history digest by one window's inbox.

    The digest covers each delivery's ``(arrival, src, dst, sequence)``
    key — in a deterministic engine the key identifies the payload, so
    matching chains mean the worker's warm state was built from exactly
    the deliveries this payload prescribes.
    """
    hasher = hashlib.sha256(chain.encode())
    for message in deliveries:
        hasher.update(
            b"%d:%d:%d:%d;" % (
                message.arrival_ns, message.src,
                message.dst, message.sequence,
            )
        )
    return hasher.hexdigest()


def _replay(builder, indices, ends, history, upto) -> _ShardState:
    """Rebuild a shard from scratch through windows ``0..upto-1``."""
    state = _ShardState([builder(index) for index in indices])
    by_index = {c.index: c for c in state.components}
    for window in range(upto):
        for message in history[window]:
            by_index[message.dst].deliver(message)
        for component in state.components:
            component.advance(ends[window])
        state.chain = _chain_digest(state.chain, history[window])
        state.windows_done = window + 1
    return state


#: A delta job's answer when its process holds no state for the shard
#: through the previous window: nothing was simulated, and the
#: coordinator re-sends the shard with its full history.
COLD = "cold"


def _advance_shard(token, builder, indices, ends, upto, chain, inbox, history):
    """Worker entry point: one (shard, window) supervised job.

    ``inbox`` is the shard's exchange-ordered inbox for window ``upto``
    and ``chain`` the digest of its inboxes for windows ``0..upto-1``.
    A *delta* job (``history=None``) advances the warm state this
    process kept from the shard's previous window — the pool lease pins
    a shard's jobs to one worker — and answers :data:`COLD` without
    simulating when that state is missing, dirty or disagrees with
    ``chain`` (a fresh worker after a crash, or the first live window
    after a checkpoint resume).  A *full* job also carries ``history``,
    the inboxes of windows ``0..upto-1``, and rebuilds the shard through
    :func:`_replay` whenever its state is not warm, so it always
    advances: the one recovery path.
    """
    key = (token, indices)
    state = _STATE.get(key)
    if (
        state is None or state.dirty
        or state.windows_done != upto or state.chain != chain
    ):
        if history is None:
            return COLD
        for stale in [k for k in _STATE if k[0] != token]:
            del _STATE[stale]
        state = _replay(builder, indices, ends, history, upto)
        _STATE[key] = state

    by_index = {c.index: c for c in state.components}
    end = ends[upto]
    # Anything that raises past this point leaves half-advanced
    # simulators behind; the dirty flag makes the next job replay.
    state.dirty = True
    for message in inbox:
        by_index[message.dst].deliver(message)
    outbox: list[SyncMessage] = []
    for component in state.components:
        outbox.extend(component.advance(end))
    state.windows_done = upto + 1
    state.chain = _chain_digest(state.chain, inbox)
    state.dirty = False

    for message in outbox:
        if message.arrival_ns <= end:
            raise WorkloadError(
                f"lookahead violation: component {message.src} emitted a "
                f"message arriving at {message.arrival_ns} inside the "
                f"window ending at {end}"
            )
    if upto == len(ends) - 1:
        events = sum(c.events_executed() for c in state.components)
        results = tuple((c.index, c.finish()) for c in state.components)
        del _STATE[key]
        return (tuple(outbox), results, events)
    return (tuple(outbox), None, 0)


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------

_RUN_TOKENS = itertools.count(1)


def run_windowed(
    builder: Callable[[int], SyncComponent],
    count: int,
    plan: WindowPlan,
    shards: int = 1,
    workers: int = 1,
    policy=None,
    checkpoint=None,
    tracer=None,
    metrics=None,
    start_method: str | None = None,
    label: str = "sync",
) -> SyncRunResult:
    """Run ``count`` components through the windowed engine.

    ``builder(index)`` constructs component ``index``; it must be
    picklable (a module-level function or :func:`functools.partial`
    over picklable arguments) since workers rebuild components from it.
    ``shards``/``workers`` choose the partition and the pool exactly as
    in :func:`repro.experiments.fanin.run_fanin_sharded`; ``policy`` and
    ``tracer`` thread through the supervised runner (the tracer receives
    one ``shard.window`` record per barrier).

    The runner's pool lease pins shard ``s`` to worker slot
    ``s mod workers`` for the whole run, so each (shard, window) job
    ships only that window's inbox and the worker advances the state it
    kept warm.  A job answering :data:`COLD` is re-sent with the shard's
    full history in a second round; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) counts those re-sends
    as ``sim.sync.replays`` beside the ``sim.sync.windows`` /
    ``sim.sync.exchanged_events`` counters.  Replays depend on
    placement, so they never enter :class:`SyncRunResult`.

    ``checkpoint`` (a store or directory) records every window's
    replies and a later run skips the windows it holds, resuming window
    by window.  The engine records them itself, not the supervisor: a
    delta job's reply depends on the worker that ran it, and a
    :data:`COLD` reply must never be stored.
    """
    from repro.parallel import ParallelRunner, _as_store, _require_all_ok
    from repro.supervise.checkpoint import job_key

    splan = ShardPlan.round_robin(count, shards)
    ends = plan.window_ends()
    runner = ParallelRunner(workers, start_method=start_method, policy=policy)
    store = _as_store(checkpoint)
    # The token namespaces worker caches per engine run; it is *not*
    # part of the checkpoint key (which must survive restarts).
    token = f"{os.getpid()}:{next(_RUN_TOKENS)}"
    scenario = job_key((label, count, plan, splan.shards))[:16]

    clock = [0]
    if tracer is not None:
        tracer.bind_clock(lambda: clock[0])
    if metrics is not None:
        metrics.counter("sim.sync.replays")  # present, and 0, when healthy

    histories: list[list[tuple[SyncMessage, ...]]] = [
        [] for _ in range(splan.shards)
    ]
    chains = [_CHAIN_SEED] * splan.shards
    pending: list[list[SyncMessage]] = [[] for _ in range(splan.shards)]
    finals: dict[int, object] = {}
    exchanged = 0
    events_executed = 0

    with ExitStack() as cleanup:
        session = cleanup.enter_context(runner.session())
        if store is not checkpoint:  # opened here from a directory
            cleanup.callback(store.close)
        for window, end in enumerate(ends):
            payloads, keys = [], []
            for shard in range(splan.shards):
                due = tuple(sorted(
                    (m for m in pending[shard] if m.arrival_ns <= end),
                    key=lambda m: m.key,
                ))
                pending[shard] = [
                    m for m in pending[shard] if m.arrival_ns > end
                ]
                # Window 0 has no history, so its jobs are full ones.
                payloads.append((
                    token, builder, splan.assignments[shard], ends,
                    window, chains[shard], due, () if window == 0 else None,
                ))
                histories[shard].append(due)
                chains[shard] = _chain_digest(chains[shard], due)
                keys.append(
                    f"sync-{scenario}-s{shard}-w{window}-{chains[shard][:16]}"
                )
            labels = [
                f"{label} window {window + 1}/{len(ends)} "
                f"shard {shard + 1}/{splan.shards}"
                for shard in range(splan.shards)
            ]
            stored = [
                store.get(key) if store is not None else None for key in keys
            ]
            if all(entry is not None for entry in stored):
                returns = [result for result, _ in stored]
            else:
                advance = partial(
                    runner.map_outcomes, _advance_shard,
                    labels=labels, keys=keys, session=session,
                )
                returns = _require_all_ok(advance(payloads))
                cold = [s for s, reply in enumerate(returns) if reply == COLD]
                if cold:
                    # The re-send keeps every shard at its job index, so
                    # each lands on its own slot and warms it again; the
                    # warm shards' repeated deltas just answer COLD.
                    for shard in cold:
                        payloads[shard] = payloads[shard][:-1] + (
                            tuple(histories[shard][:-1]),
                        )
                    resent = _require_all_ok(advance(payloads))
                    for shard in cold:
                        returns[shard] = resent[shard]
                    if metrics is not None:
                        metrics.counter("sim.sync.replays").inc(len(cold))
                if store is not None:
                    for key, entry, reply, name in zip(
                        keys, stored, returns, labels
                    ):
                        if entry is None:
                            store.record_success(key, reply, label=name)
            emitted: list[SyncMessage] = []
            for outbox, results, events in returns:
                emitted.extend(outbox)
                if results is not None:
                    finals.update(results)
                    events_executed += events
            for message in sorted(emitted, key=lambda m: m.key):
                if message.arrival_ns <= end:
                    raise WorkloadError(
                        f"lookahead violation at the exchange: "
                        f"{message.arrival_ns} <= window end {end}"
                    )
                if not 0 <= message.dst < count:
                    raise WorkloadError(
                        f"message addressed to unknown component "
                        f"{message.dst}"
                    )
                pending[splan.shard_of(message.dst)].append(message)
            exchanged += len(emitted)
            clock[0] = end
            if metrics is not None:
                metrics.counter("sim.sync.windows").inc()
                metrics.counter("sim.sync.exchanged_events").inc(
                    len(emitted)
                )
            if tracer is not None and tracer.enabled:
                tracer.shard_window(
                    window + 1, end, splan.shards, len(emitted)
                )
    # Messages still pending here would arrive beyond the horizon; the
    # serial run would not execute them either (run(until=horizon)), so
    # they are dropped symmetrically.
    return SyncRunResult(
        results=[finals[index] for index in range(count)],
        windows=len(ends),
        exchanged_events=exchanged,
        events_executed=events_executed,
    )
