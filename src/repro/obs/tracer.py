"""The structured tracer: typed ``repro-trace-v1`` record emission.

One :class:`Tracer` serves a whole run.  Components hold a reference
(defaulting to the shared disabled :data:`NULL_TRACER`) and guard every
emit site with ``if tracer.enabled:`` — when tracing is off the entire
cost is that one attribute read, no record is built, and simulation
results are byte-identical to a build without the instrumentation
(tracing never draws randomness and never schedules events).

The tracer stamps records with a *clock* — any zero-argument callable
returning integer nanoseconds.  Testbed assembly binds the run's
simulator clock (:meth:`bind_clock`), so a tracer can be constructed
before the simulation exists (the CLI does) and still stamp simulated
time.

Typed emit helpers (:meth:`queue_sample`, :meth:`exchange_send`, …)
build records that conform to :mod:`repro.obs.schema` by construction;
the generic :meth:`emit` is the escape hatch beneath them.
"""

from __future__ import annotations

from typing import Callable


def _snapshot_dict(snapshot) -> dict:
    """A ``QueueSnapshot`` (or similar) as schema {time,total,integral}."""
    return {
        "time": snapshot.time,
        "total": snapshot.total,
        "integral": snapshot.integral,
    }


class Tracer:
    """Emits typed trace records to a sink when enabled.

    ``sink`` is anything with ``append(record)``/``close()`` (see
    :mod:`repro.obs.sinks`); an enabled tracer defaults to an in-memory
    :class:`~repro.obs.sinks.ListSink`, and a disabled one to no sink.
    ``clock`` may be deferred and bound later with :meth:`bind_clock`.

    A recording tracer loads :mod:`repro.obs.schema` and
    :mod:`repro.obs.sinks` when it is built, so the run it records
    imports nothing new; a disabled one (:data:`NULL_TRACER`) loads
    neither.
    """

    def __init__(
        self,
        sink=None,
        clock: Callable[[], int] | None = None,
        enabled: bool = True,
        label: str | None = None,
    ):
        if enabled:
            # Recording executes both modules (the stream header names
            # the schema; the default sink keeps records in memory), so
            # load them here rather than mid-run.
            from repro.obs import schema, sinks

            if sink is None:
                sink = sinks.ListSink()
        self.sink = sink
        self._clock = clock
        self.enabled = enabled
        self.label = label
        self.emitted = 0
        self._header_written = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def bind_clock(self, clock_or_sim) -> None:
        """Bind the time source: a callable, or anything with ``.now``."""
        if callable(clock_or_sim):
            self._clock = clock_or_sim
        else:
            self._clock = lambda: clock_or_sim.now

    def close(self) -> None:
        """Close the sink (flushes file-backed sinks)."""
        if self.sink is not None:
            self.sink.close()

    @property
    def records(self):
        """The sink's retained records (memory sinks only)."""
        return getattr(self.sink, "records", [])

    # ------------------------------------------------------------------
    # Generic emission.
    # ------------------------------------------------------------------

    def emit(self, type_: str, src: str, **fields) -> None:
        """Append one record (no-op when disabled).

        The stream header is written lazily before the first record, so
        every non-empty trace starts with a ``trace.header``.
        """
        if not self.enabled:
            return
        if not self._header_written:
            from repro.obs.schema import SCHEMA

            self._header_written = True
            self.sink.append({
                "t": self._now(),
                "type": "trace.header",
                "src": "tracer",
                "schema": SCHEMA,
                "label": self.label,
            })
            self.emitted += 1
        record = {"t": self._now(), "type": type_, "src": src}
        record.update(fields)
        self.sink.append(record)
        self.emitted += 1

    def _now(self) -> int:
        return self._clock() if self._clock is not None else 0

    # ------------------------------------------------------------------
    # Typed emit helpers — one per schema record type.  Callers still
    # guard with ``if tracer.enabled:`` so arguments are never built
    # when tracing is off; the checks here are a second line of defense
    # for direct library use.
    # ------------------------------------------------------------------

    def queue_sample(self, src: str, triple) -> None:
        """A ``queue.sample``: one endpoint's ``TripleSnapshot``."""
        if self.enabled:
            self.emit(
                "queue.sample", src,
                unacked=_snapshot_dict(triple.unacked),
                unread=_snapshot_dict(triple.unread),
                ackdelay=_snapshot_dict(triple.ackdelay),
            )

    def exchange_send(self, src: str, nbytes: int, demand: bool, hint: bool) -> None:
        """An ``exchange.send``: a metadata state left this endpoint."""
        if self.enabled:
            self.emit("exchange.send", src, bytes=nbytes, demand=demand, hint=hint)

    def exchange_recv(self, src: str, outcome: str, candidate) -> None:
        """An ``exchange.recv``: a peer state arrived; its fate."""
        if self.enabled:
            self.emit(
                "exchange.recv", src,
                outcome=outcome,
                unacked=_snapshot_dict(candidate.unacked),
                unread=_snapshot_dict(candidate.unread),
                ackdelay=_snapshot_dict(candidate.ackdelay),
            )

    def estimator_sample(self, src: str, sample, clamped: str | None) -> None:
        """An ``estimator.sample``: §3.2 inputs and combined output."""
        if self.enabled:
            def _delays(delays):
                return {
                    "unacked": delays.unacked,
                    "unread": delays.unread,
                    "ackdelay": delays.ackdelay,
                }

            self.emit(
                "estimator.sample", src,
                interval_ns=sample.interval_ns,
                local=_delays(sample.local),
                remote=(
                    _delays(sample.remote) if sample.remote is not None else None
                ),
                latency_ns=sample.latency_ns,
                throughput_per_sec=sample.throughput_per_sec,
                complete=sample.complete,
                clamped=clamped,
            )

    def estimator_reject(
        self, src: str, reason: str, staleness_ns: int | None = None
    ) -> None:
        """An ``estimator.reject``: the remote view was discarded."""
        if self.enabled:
            self.emit(
                "estimator.reject", src,
                reason=reason, staleness_ns=staleness_ns,
            )

    def toggler_decision(
        self,
        src: str,
        tick: int,
        mode: bool,
        prev_mode: bool,
        explored: bool,
        phase: str,
        sample_latency_ns,
        ewma: dict,
    ) -> None:
        """A ``toggler.decision``: one controller tick, fully justified."""
        if self.enabled:
            self.emit(
                "toggler.decision", src,
                tick=tick,
                mode=mode,
                prev_mode=prev_mode,
                toggled=mode != prev_mode,
                explored=explored,
                phase=phase,
                sample_latency_ns=sample_latency_ns,
                ewma=ewma,
            )

    def fault_verdict(
        self, src: str, layer: str, verdict: str, delay_ns: int | None = None
    ) -> None:
        """A ``fault.verdict``: an injection hook acted on traffic."""
        if self.enabled:
            self.emit(
                "fault.verdict", src,
                layer=layer, verdict=verdict, delay_ns=delay_ns,
            )

    def tcp_event(self, src: str, event: str, detail=None) -> None:
        """A ``tcp.event``: a TCP socket's protocol tap."""
        if self.enabled:
            self.emit("tcp.event", src, event=event, detail=detail)

    def shard_window(
        self, window: int, end_ns: int, shards: int, exchanged: int
    ) -> None:
        """A ``shard.window``: the windowed engine crossed a barrier."""
        if self.enabled:
            self.emit(
                "shard.window", "sync",
                window=window, end_ns=end_ns,
                shards=shards, exchanged=exchanged,
            )

    def job_retry(
        self, key: str, index: int, attempts: int, kind: str, backoff_s: float
    ) -> None:
        """A ``job.retry``: the supervisor embargoed a failed job."""
        if self.enabled:
            self.emit(
                "job.retry", "supervisor",
                key=key, index=index, attempts=attempts,
                kind=kind, backoff_s=backoff_s,
            )

    def job_timeout(
        self, key: str, index: int, attempts: int, timeout_s: float
    ) -> None:
        """A ``job.timeout``: a job blew its wall-clock budget."""
        if self.enabled:
            self.emit(
                "job.timeout", "supervisor",
                key=key, index=index, attempts=attempts, timeout_s=timeout_s,
            )

    def job_quarantine(
        self,
        key: str,
        index: int,
        attempts: int,
        kind: str,
        error: str | None = None,
        message: str = "",
    ) -> None:
        """A ``job.quarantine``: a job's retry budget is exhausted."""
        if self.enabled:
            self.emit(
                "job.quarantine", "supervisor",
                key=key, index=index, attempts=attempts,
                kind=kind, error=error, message=message,
            )

    def diagnosis_verdict(
        self,
        index: int,
        key: str,
        connections: int,
        findings: int,
        classes: list,
        pathological: bool,
    ) -> None:
        """A ``diagnosis.verdict``: one job's trace segment was scored."""
        if self.enabled:
            self.emit(
                "diagnosis.verdict", "diagnosis",
                index=index, key=key, connections=connections,
                findings=findings, classes=classes,
                pathological=pathological,
            )

    def log_message(self, message: str) -> None:
        """A ``log.message``: a progress line mirrored into the trace."""
        if self.enabled:
            self.emit("log.message", "log", message=message)

    def metrics_snapshot(self, snapshot: dict) -> None:
        """A ``metrics.snapshot``: a metrics-registry dump."""
        if self.enabled:
            self.emit("metrics.snapshot", "metrics", metrics=snapshot)

    def campaign_plan(
        self,
        campaign: str,
        scenario: str,
        spec_digest: str,
        cells: int,
        components: list,
        tweaks: list,
        metrics: list,
    ) -> None:
        """A ``campaign.plan``: a spec expanded and is about to run."""
        if self.enabled:
            self.emit(
                "campaign.plan", "campaign",
                campaign=campaign, scenario=scenario,
                spec_digest=spec_digest, cells=cells,
                components=components, tweaks=tweaks, metrics=metrics,
            )

    def campaign_importance(
        self, campaign: str, ranking: list, scores: dict
    ) -> None:
        """A ``campaign.importance``: the final component ranking."""
        if self.enabled:
            self.emit(
                "campaign.importance", "campaign",
                campaign=campaign, ranking=ranking, scores=scores,
            )


#: Shared always-disabled tracer: the default every instrumented
#: component holds, so "no tracing" costs one attribute read per site.
NULL_TRACER = Tracer(enabled=False)
