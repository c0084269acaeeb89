"""Conservative cross-component simulation: lock-stepped time windows.

This is the one engine that runs a scenario across shards.  It builds on
the partition and merge primitives of :mod:`repro.sim.shard` and keeps
their determinism contract for topologies whose components exchange
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
3. At the window barrier, the exchange collects every mailbox and
   delivers each message before the window its arrival falls in, in the
   partition-free order ``(arrival timestamp, source component,
   per-source sequence)``.

The determinism contract extension
----------------------------------

The window schedule is a function of ``(horizon, lookahead)`` only —
never of the partition — and **every** inter-component message goes
through the exchange.  Each component therefore sees the identical
inbox in the identical order however the run is placed, so the run's
output — and the ``sim.sync.windows`` / ``sim.sync.exchanged_events``
counts themselves — are byte-identical for every ``(shards, workers)``
combination, including the in-process serial run.

Execution
---------

The plan decides where a run executes.  Components with no cross links
(the decomposed fan-in) have infinite lookahead: the plan collapses to a
single window, nothing one component emits can reach another before the
horizon, and the components split into ``shards`` supervised jobs on a
pool of ``workers`` processes.  With a finite lookahead (the shared
bottleneck) the components are coupled at every barrier, and they run as
one supervised job in the calling process, stepping the same windows
and the same exchange locally.  A coupled run spread over processes
would pay a coordinator round trip per window, and on two cores no flow
count or lookahead measured made that beat the serial run
(docs/PERFORMANCE.md, "Intra-run sharding"); independent runs are where
the cores pay.  Jobs are pure, so retries, crashes, checkpoints and
resume compose with byte-identical output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

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
    implement the window protocol; instances are built *inside* the job
    that runs them, by the picklable builder handed to
    :func:`run_windowed`, so they never cross a process boundary
    themselves.
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
    exchanged_events: int    # messages through the exchange
    events_executed: int     # kernel events across all sub-simulations


# ----------------------------------------------------------------------
# The job: a group of components through every window.
# ----------------------------------------------------------------------

def _run_group(builder, indices, count, ends):
    """One supervised job: run components ``indices`` through ``ends``.

    At each barrier the messages due by the window end are delivered in
    exchange order ``(arrival, src, sequence)``, then every component
    advances and its outbox joins the exchange.  Returns ``(counts,
    results, events)``: the messages emitted in each window, each
    component's ``(index, finish())`` and the kernel events executed.

    A group that is not the whole scenario only ever runs a one-window
    plan, where every message arrives beyond the horizon and is dropped
    here exactly as the serial run (``run(until=horizon)``) would drop
    it, so no message ever needs another group's components.
    """
    components = [builder(index) for index in indices]
    by_index = {component.index: component for component in components}
    pending: list[tuple[tuple[int, int, int], SyncMessage]] = []
    counts = []
    for end in ends:
        while pending and pending[0][0][0] <= end:
            _, message = heapq.heappop(pending)
            by_index[message.dst].deliver(message)
        emitted = 0
        for component in components:
            for message in component.advance(end):
                if message.arrival_ns <= end:
                    raise WorkloadError(
                        f"lookahead violation: component {message.src} "
                        f"emitted a message arriving at "
                        f"{message.arrival_ns} inside the window ending "
                        f"at {end}"
                    )
                if not 0 <= message.dst < count:
                    raise WorkloadError(
                        f"message addressed to unknown component "
                        f"{message.dst}"
                    )
                heapq.heappush(pending, (message.key, message))
                emitted += 1
        counts.append(emitted)
    events = sum(component.events_executed() for component in components)
    results = tuple((c.index, c.finish()) for c in components)
    return tuple(counts), results, events


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------

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
    over picklable arguments), since pooled jobs rebuild components from
    it and the checkpoint key digests it.

    A one-window plan (infinite lookahead) splits the components into
    the ``shards`` groups of a round-robin
    :class:`~repro.sim.shard.ShardPlan`, one supervised job each on a
    pool of ``workers`` processes.  Any longer plan couples the
    components, so they run as one supervised job in this process
    whatever ``shards`` and ``workers`` say.  ``policy`` threads through
    the supervised runner.

    ``checkpoint`` (a store or directory) records each job's reply, and
    a later run skips the jobs it holds.  Jobs are keyed whole by
    ``label``, ``count``, ``plan``, ``builder`` (which carries the
    config) and the job's components, so runs of different configs can
    share one store.

    Every job returns its per-window message counts, from which
    ``tracer`` receives one ``shard.window`` record per barrier and
    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) the
    ``sim.sync.windows`` / ``sim.sync.exchanged_events`` counters, the
    same whether a job ran or came from the store.
    """
    from repro.parallel import ParallelRunner, _as_store, _require_all_ok
    from repro.supervise.checkpoint import job_key

    splan = ShardPlan.round_robin(count, shards)
    ends = plan.window_ends()
    # Only in a one-window plan does nothing a component emits reach
    # another before the horizon, so only then can the groups run apart.
    groups = (
        splan.assignments if len(ends) == 1 else (tuple(range(count)),)
    )
    runner = ParallelRunner(workers, start_method=start_method, policy=policy)
    store = _as_store(checkpoint)
    try:
        replies = _require_all_ok(runner.map_outcomes(
            _run_group,
            [(builder, group, count, ends) for group in groups],
            checkpoint=store,
            labels=[
                f"{label} shard {shard + 1}/{len(groups)}"
                for shard in range(len(groups))
            ],
            keys=[
                "sync-" + job_key((label, count, plan, builder, group))
                for group in groups
            ],
        ))
    finally:
        if store is not checkpoint:  # opened here from a directory
            store.close()

    finals: dict[int, object] = {}
    for _, results, _ in replies:
        finals.update(results)
    per_window = [sum(column) for column in zip(*(c for c, _, _ in replies))]
    if metrics is not None:
        metrics.counter("sim.sync.windows").inc(len(ends))
        metrics.counter("sim.sync.exchanged_events").inc(sum(per_window))
    if tracer is not None:
        clock = [0]
        tracer.bind_clock(lambda: clock[0])
        for window, (end, exchanged) in enumerate(zip(ends, per_window)):
            clock[0] = end
            tracer.shard_window(window + 1, end, len(groups), exchanged)
    return SyncRunResult(
        results=[finals[index] for index in range(count)],
        windows=len(ends),
        exchanged_events=sum(per_window),
        events_executed=sum(events for _, _, events in replies),
    )
