"""A11 — decomposing L into its four queue delays (the Figure 3 story).

The §3.2 estimate is a *sum*:

    L ≈ L_unacked^local − L_ackdelay^remote + L_unread^local + L_unread^remote

Figure 3 argues each term covers a leg of the request/response journey.
This experiment makes that concrete: it reports the four components
across the load range and shows how the dominant term moves — wire/ack
time (unacked) at low load, receive-path queueing (remote unread) as the
server's softirq backlog grows — which is precisely the signal a
batching policy needs ("where is the time going?"), not just a single
scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.offline import endpoint_delays
from repro.analysis.report import format_table
from repro.core.estimator import QueueDelays, combine
from repro.experiments.fig4a import default_config
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.units import msecs, to_usecs


@dataclass(frozen=True)
class Decomposition:
    """The client view's four components over one measure window (ns)."""

    rate: float
    unacked_local: float
    ackdelay_remote: float
    unread_local: float
    unread_remote: float
    total: float
    measured: float

    @property
    def recombined(self) -> float:
        """The formula's sum (:func:`combine`), from the components."""
        local = QueueDelays(self.unacked_local, self.unread_local, None)
        remote = QueueDelays(None, self.unread_remote, self.ackdelay_remote)
        return combine(local, remote)[0]


@dataclass
class DecompositionResult:
    """Components across the load range."""

    rows: list[Decomposition]

    def render(self) -> str:
        """A11 as a table (all µs)."""
        return format_table(
            ["rate (RPS)", "unacked", "-ackdelay", "unread loc",
             "unread rem", "L (sum)", "measured"],
            [
                (
                    int(row.rate),
                    to_usecs(row.unacked_local),
                    to_usecs(-row.ackdelay_remote),
                    to_usecs(row.unread_local),
                    to_usecs(row.unread_remote),
                    to_usecs(row.total),
                    to_usecs(row.measured),
                )
                for row in self.rows
            ],
            title="A11: client-view latency decomposition (Figure 3's legs, us)",
        )


def run_decomposition(
    rates: tuple[float, ...] = (5_000.0, 20_000.0, 30_000.0, 36_000.0),
    base: BenchConfig | None = None,
    nagle: bool = False,
) -> DecompositionResult:
    """Decompose the client-view estimate at several loads."""
    base = base or default_config(measure_ns=msecs(120))
    rows = []
    for rate in rates:
        config = replace(base, rate_per_sec=rate, nagle=nagle)
        holder: dict = {}
        result = run_benchmark(config, tweak=lambda bed: holder.update(bed=bed))
        samples = holder["bed"].collector.samples
        first, last = samples[0], samples[-1]
        client = endpoint_delays(first.client, last.client)
        server = endpoint_delays(first.server, last.server)
        rows.append(
            Decomposition(
                rate=rate,
                unacked_local=client.unacked or 0.0,
                ackdelay_remote=server.ackdelay or 0.0,
                unread_local=client.unread or 0.0,
                unread_remote=server.unread or 0.0,
                total=combine(client, server)[0] or 0.0,
                measured=result.send_latency.mean_ns,
            )
        )
    return DecompositionResult(rows=rows)
