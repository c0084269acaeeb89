"""Conservative cross-component simulation: lock-stepped time windows.

This engine runs a scenario whose components exchange packets — many
flows contending on one bottleneck link — with the classic conservative
parallel-DES recipe:

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

The window schedule is a function of ``(horizon, lookahead)`` only, and
**every** inter-component message goes through the exchange, so each
component sees the same inbox in the same order on every run, and so do
the ``sim.sync.windows`` / ``sim.sync.exchanged_events`` counts.

Execution
---------

The components are coupled at every barrier, so a run is one supervised
job in the calling process that steps every window and the exchange
locally.  A coupled run spread over processes would pay a coordinator
round trip per window, and on two cores no flow count or lookahead
measured made that beat the serial run (docs/PERFORMANCE.md,
"Intra-run sharding"); independent runs — the decomposed fan-in
included — are where the cores pay, as ordinary campaigns.  The job is
pure, so retries and checkpoints compose with byte-identical output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.errors import WorkloadError


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
    implement the window protocol; instances are built inside the job
    that runs them, by the builder handed to :func:`run_windowed`.
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

    The schedule depends only on these two numbers — never on how the
    components are built or run — which is what makes the exchange
    order partition-free.  A lookahead at or past the horizon is one
    window.
    """

    horizon_ns: int
    lookahead_ns: int

    def __post_init__(self):
        if self.horizon_ns <= 0:
            raise WorkloadError(
                f"horizon must be positive, got {self.horizon_ns}"
            )
        if self.lookahead_ns is None or self.lookahead_ns <= 0:
            raise WorkloadError(
                f"lookahead must be positive, got {self.lookahead_ns}"
            )

    def window_ends(self) -> tuple[int, ...]:
        """Window end times, ascending; the last equals the horizon."""
        step = self.lookahead_ns
        return (*range(step, self.horizon_ns, step), self.horizon_ns)


@dataclass
class SyncRunResult:
    """What :func:`run_windowed` hands back to the experiment layer."""

    results: list            # component finish() payloads, index order
    windows: int             # lock-step windows executed
    exchanged_events: int    # messages through the exchange
    events_executed: int     # kernel events across all sub-simulations


# ----------------------------------------------------------------------
# The job: every component through every window.
# ----------------------------------------------------------------------

def _run_group(builder, count, ends):
    """The one supervised job: run components ``0..count-1`` through
    ``ends``.

    At each barrier the messages due by the window end are delivered in
    exchange order ``(arrival, src, sequence)``, then every component
    advances and its outbox joins the exchange.  Returns ``(counts,
    results, events)``: the messages emitted in each window, each
    component's ``(index, finish())`` and the kernel events executed.
    A message arriving beyond the horizon is dropped, as the serial
    run's ``run(until=horizon)`` would drop it.
    """
    components = [builder(index) for index in range(count)]
    pending: list[tuple[tuple[int, int, int], SyncMessage]] = []
    counts = []
    for end in ends:
        while pending and pending[0][0][0] <= end:
            _, message = heapq.heappop(pending)
            components[message.dst].deliver(message)
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
    policy=None,
    checkpoint=None,
    tracer=None,
    metrics=None,
    label: str = "sync",
) -> SyncRunResult:
    """Run ``count`` components through the windowed engine.

    ``builder(index)`` constructs component ``index``; it must be
    picklable (a module-level function or :func:`functools.partial`
    over picklable arguments), since the checkpoint key digests it.

    The run is one supervised job in this process; ``policy`` threads
    through the supervised runner.  ``checkpoint`` (a store or
    directory) records the job's reply, and a later run with the same
    key skips it.  The job is keyed by ``label``, ``count``, ``plan``
    and ``builder`` (which carries the config), so runs of different
    configs can share one store.

    The job returns its per-window message counts, from which
    ``tracer`` receives one ``shard.window`` record per barrier and
    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) the
    ``sim.sync.windows`` / ``sim.sync.exchanged_events`` counters, the
    same whether the job ran or came from the store.
    """
    from repro.parallel import ParallelRunner, _as_store, _require_all_ok
    from repro.supervise.checkpoint import job_key

    ends = plan.window_ends()
    # The key and the reply's (index, result) pairs keep the shape that
    # existing stores hold, so their replies still hit.
    components = tuple(range(count))
    store = _as_store(checkpoint)
    try:
        ((per_window, results, events),) = _require_all_ok(
            ParallelRunner(policy=policy).map_outcomes(
                _run_group,
                [(builder, count, ends)],
                checkpoint=store,
                labels=[label],
                keys=[
                    "sync-"
                    + job_key((label, count, plan, builder, components))
                ],
            )
        )
    finally:
        if store is not checkpoint:  # opened here from a directory
            store.close()

    if metrics is not None:
        metrics.counter("sim.sync.windows").inc(len(ends))
        metrics.counter("sim.sync.exchanged_events").inc(sum(per_window))
    if tracer is not None:
        clock = [0]
        tracer.bind_clock(lambda: clock[0])
        for window, (end, exchanged) in enumerate(zip(ends, per_window)):
            clock[0] = end
            tracer.shard_window(window + 1, end, 1, exchanged)
    return SyncRunResult(
        results=[result for _, result in results],
        windows=len(ends),
        exchanged_events=sum(per_window),
        events_executed=events,
    )
