"""A10 — many clients, one server: fan-in through a switch.

The paper's evaluation uses one client machine; its §3.2 notes that
per-connection estimates "can be averaged if a batching policy
simultaneously affects multiple connections."  This experiment builds
the deployment that sentence implies: N independent client machines
funnel through a switch into one server, the offline estimates are
computed per connection and throughput-weighted-averaged, and a single
dynamic toggler flips Nagle on *every* connection from that averaged
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.counters import CounterClock, CounterCollector
from repro.analysis.offline import throughput_weighted
from repro.analysis.report import format_table
from repro.apps.kvstore import KVStore
from repro.apps.redis_client import ClientConfig, RedisClient
from repro.apps.redis_server import RedisServer, ServerConfig
from repro.core.estimator import E2EEstimator, combine_estimates
from repro.core.policy import LatencyFirstPolicy, PerfSample
from repro.core.toggler import NagleToggler, TogglerConfig
from repro.host.host import Host, HostCosts
from repro.loadgen.arrivals import Workload, poisson_schedule
from repro.loadgen.stats import summarize
from repro.net.switch import Star
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connect import connect_pair
from repro.tcp.socket import TcpConfig
from repro.units import msecs, to_usecs, usecs


@dataclass(frozen=True)
class FaninConfig:
    """The fan-in scenario's knobs."""

    clients: int = 4
    total_rate_per_sec: float = 48_000.0
    nagle: bool = False
    workload: Workload = field(default_factory=Workload)
    warmup_ns: int = msecs(40)
    measure_ns: int = msecs(150)
    seed: int = 1
    propagation_delay_ns: int = usecs(5)


@dataclass
class FaninBed:
    """Everything the fan-in builder assembles."""

    sim: Simulator
    rng: RngRegistry
    indices: tuple[int, ...]  # the clients' global indices
    server_host: Host
    client_hosts: list[Host]
    client_socks: list
    server_socks: list
    clients: list[RedisClient]
    server: RedisServer
    collectors: list[CounterCollector]
    clock: CounterClock  # samples the collectors


def build_fanin(config: FaninConfig, indices=None) -> FaninBed:
    """Assemble client machines, a switch, and one server.

    ``indices`` picks the clients to build (all by default).  Names are
    keyed by each client's global index, so a bed of one client is that
    connection of the fan-in with a server of its own.
    """
    indices = tuple(range(config.clients) if indices is None else indices)
    sim = Simulator()
    rng = RngRegistry(config.seed)
    server_host = Host(sim, "server", costs=HostCosts())
    client_hosts = [
        Host(sim, f"client{index}", costs=HostCosts()) for index in indices
    ]
    Star.connect(
        sim,
        {host.name: host.nic for host in client_hosts + [server_host]},
        propagation_delay_ns=config.propagation_delay_ns,
    )
    tcp_config = TcpConfig(nagle=config.nagle)
    client_socks, server_socks, clients, collectors = [], [], [], []
    for index, host in zip(indices, client_hosts):
        client_sock, server_sock = connect_pair(
            sim, host, server_host, tcp_config, tcp_config,
            name=f"conn{index}",
        )
        client_socks.append(client_sock)
        server_socks.append(server_sock)
        clients.append(
            RedisClient(sim, host, client_sock, config=ClientConfig(),
                        name=f"lancet{index}")
        )
        collectors.append(CounterCollector(
            sim, client_sock, server_sock, period_ns=msecs(10)
        ))
    server = RedisServer(
        sim, server_host, server_socks[0], store=KVStore(),
        config=ServerConfig(), extra_sockets=server_socks[1:],
    )
    return FaninBed(
        sim=sim, rng=rng, indices=indices, server_host=server_host,
        client_hosts=client_hosts, client_socks=client_socks,
        server_socks=server_socks, clients=clients, server=server,
        collectors=collectors, clock=CounterClock(sim, collectors),
    )


def _measure(bed: FaninBed, config: FaninConfig) -> tuple[int, int]:
    """Seed the store, start the load, run the measurement window and
    stop the clock; returns the window's ``(start, end)``."""
    workload = config.workload
    for index in range(workload.keyspace):
        bed.server.store.set(workload.make_key(index), workload.value_bytes)
    bed.server.start()
    per_client_rate = config.total_rate_per_sec / config.clients
    for index, client in zip(bed.indices, bed.clients):
        schedule = poisson_schedule(
            bed.rng.stream(f"arrivals.{index}"), workload, per_client_rate,
            start_ns=bed.sim.now,
            duration_ns=config.warmup_ns + config.measure_ns,
        )
        client.start(schedule)

    measure_start = bed.sim.now + config.warmup_ns
    measure_end = measure_start + config.measure_ns

    def begin() -> None:
        bed.server_host.reset_utilization_windows()
        bed.clock.start()

    bed.sim.call_at(measure_start, begin)
    bed.sim.run(until=measure_end)
    bed.clock.stop()
    return measure_start, measure_end


@dataclass
class FaninResult:
    """One fan-in run's measurements."""

    config: FaninConfig
    per_client_mean_ns: list[float]
    aggregate_mean_ns: float
    averaged_estimate_ns: float | None
    server_net_util: float
    toggler_final_mode: bool | None = None
    toggler_toggles: int | None = None

    def render(self) -> str:
        """A10 as a table."""
        rows = [
            (f"client {index}", to_usecs(mean))
            for index, mean in enumerate(self.per_client_mean_ns)
        ]
        rows.append(("aggregate", to_usecs(self.aggregate_mean_ns)))
        if self.averaged_estimate_ns is not None:
            rows.append(("averaged estimate (sec. 3.2)",
                         to_usecs(self.averaged_estimate_ns)))
        title = (
            f"A10: {self.config.clients} clients -> 1 server at "
            f"{self.config.total_rate_per_sec:,.0f} RPS total, "
            f"nagle={'on' if self.config.nagle else 'off'}"
        )
        return format_table(["series", "mean latency (us)"], rows, title=title)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) for byte-diffs."""
        import dataclasses
        import json

        return json.dumps(
            dataclasses.asdict(self),
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )


def run_fanin(config: FaninConfig, with_toggler: bool = False) -> FaninResult:
    """Run the fan-in scenario, optionally under a spanning toggler."""
    bed = build_fanin(config)
    toggler = None
    if with_toggler:
        toggler = _attach_spanning_toggler(bed)
    measure_start, measure_end = _measure(bed, config)

    per_client = []
    all_samples = []
    for client in bed.clients:
        samples = [
            r.latency_ns for r in client.records
            if measure_start <= r.completed_at <= measure_end
        ]
        per_client.append(summarize(samples).mean_ns)
        all_samples.extend(samples)

    estimates = [
        collector.window_estimate(measure_start, measure_end)
        for collector in bed.collectors
        if collector.sample_count >= 2
    ]
    averaged = throughput_weighted(
        (e.latency_ns, e.throughput_per_sec) for e in estimates
    )

    return FaninResult(
        config=config,
        per_client_mean_ns=per_client,
        aggregate_mean_ns=summarize(all_samples).mean_ns,
        averaged_estimate_ns=averaged[0] if averaged else None,
        server_net_util=bed.server_host.net_core.utilization(),
        toggler_final_mode=toggler.mode if toggler else None,
        toggler_toggles=toggler.toggles if toggler else None,
    )


@dataclass(frozen=True)
class ConnectionShard:
    """One connection's sub-simulation output (picklable, shard-neutral).

    ``events`` is the connection's completion stream inside the
    measurement window — ``(completed_at, (kind, latency_ns))`` in
    emission order — the merge input of :func:`run_fanin_sharded`.
    Nothing here depends on which shard ran the connection.
    """

    index: int
    mean_ns: float
    events: tuple
    estimate_latency_ns: float | None
    estimate_throughput: float | None
    server_net_util: float


def _run_connections(config: FaninConfig, indices) -> tuple[tuple, int]:
    """One sharded fan-in job: the connections ``indices``, each alone.

    The decomposed model: each client gets a server *replica* of its
    own, joined by the same switch fabric — not the shared, contended
    server of :func:`run_fanin` (see docs/PERFORMANCE.md for when each
    model applies).  :func:`build_fanin` keys everything by the global
    connection index, so each connection's output is a pure function of
    ``(config, index)``, never of the job that ran it.  Returns the
    connections' :class:`ConnectionShard` records and the kernel events
    their simulations executed.
    """
    conns = []
    events = 0
    for index in indices:
        bed = build_fanin(config, (index,))
        measure_start, measure_end = _measure(bed, config)
        events += bed.sim.events_executed
        stream = tuple(
            (r.completed_at, (r.kind, r.latency_ns))
            for r in bed.clients[0].records
            if measure_start <= r.completed_at <= measure_end
        )
        estimate_latency = None
        estimate_throughput = None
        collector = bed.collectors[0]
        if collector.sample_count >= 2:
            estimate = collector.window_estimate(measure_start, measure_end)
            estimate_latency = estimate.latency_ns
            estimate_throughput = estimate.throughput_per_sec
        conns.append(ConnectionShard(
            index=index,
            mean_ns=summarize(
                [latency for _, (_, latency) in stream]
            ).mean_ns,
            events=stream,
            estimate_latency_ns=estimate_latency,
            estimate_throughput=estimate_throughput,
            server_net_util=bed.server_host.net_core.utilization(),
        ))
    return tuple(conns), events


@dataclass
class ShardedFaninResult:
    """A sharded fan-in run's measurements.

    Deliberately free of execution metadata — no shard count, no worker
    count — because the byte-identity contract says those must not
    change the output.  ``merge_fingerprint`` is the order-sensitive
    digest of the merged completion stream (see
    :func:`repro.sim.shard.merge_digest`); two runs agree on it iff
    their merged event streams are identical, which is how CI byte-diffs
    sharded against serial execution.
    """

    config: FaninConfig
    per_client_mean_ns: list[float]
    aggregate_mean_ns: float
    averaged_estimate_ns: float | None
    server_net_util_mean: float
    merged_events: int
    merge_fingerprint: str
    events_executed: int

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) for byte-diffs."""
        import dataclasses
        import json

        return json.dumps(
            dataclasses.asdict(self),
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )


def run_fanin_sharded(
    config: FaninConfig,
    shards: int = 1,
    workers: int = 1,
    policy=None,
    checkpoint=None,
) -> ShardedFaninResult:
    """Run the decomposed fan-in scenario as a supervised campaign.

    Connections never exchange a packet, so they are dealt to
    ``shards`` groups by :class:`~repro.sim.shard.ShardPlan`
    (round-robin on global index), and each group is one
    :func:`_run_connections` job on a pool of ``workers`` processes.
    ``policy`` tunes retries and timeouts; ``checkpoint`` (a store or
    directory) records each job's reply under a key of the config and
    the group, and a later run skips the jobs it holds.  The
    per-connection completion streams are recombined with the
    deterministic :func:`~repro.sim.shard.merge_streams` order
    ``(timestamp, connection, sequence)``.  Output is byte-identical
    for every ``(shards, workers)`` combination — the contract CI
    enforces by diffing ``--shards 2 --workers 2`` against the serial
    run.
    """
    from repro.parallel import ParallelRunner, _as_store, _require_all_ok
    from repro.sim.shard import ShardPlan, merge_digest, merge_streams
    from repro.supervise.checkpoint import job_key

    groups = ShardPlan.round_robin(config.clients, shards).assignments
    store = _as_store(checkpoint)
    try:
        replies = _require_all_ok(
            ParallelRunner(workers, policy=policy).map_outcomes(
                _run_connections,
                [(config, group) for group in groups],
                checkpoint=store,
                labels=[
                    f"fanin shard {shard + 1}/{len(groups)}"
                    for shard in range(len(groups))
                ],
                keys=[
                    "fanin-" + job_key((config, group)) for group in groups
                ],
            )
        )
    finally:
        if store is not checkpoint:  # opened here from a directory
            store.close()
    conns = sorted(
        (conn for shard_conns, _ in replies for conn in shard_conns),
        key=lambda conn: conn.index,
    )
    merged = merge_streams((conn.index, list(conn.events)) for conn in conns)
    averaged = throughput_weighted(
        (conn.estimate_latency_ns, conn.estimate_throughput)
        for conn in conns
    )
    utils = [conn.server_net_util for conn in conns]
    return ShardedFaninResult(
        config=config,
        per_client_mean_ns=[conn.mean_ns for conn in conns],
        aggregate_mean_ns=summarize(
            [latency for _, _, _, (_, latency) in merged]
        ).mean_ns,
        averaged_estimate_ns=averaged[0] if averaged else None,
        server_net_util_mean=sum(utils) / len(utils),
        merged_events=len(merged),
        merge_fingerprint=merge_digest(merged),
        events_executed=sum(events for _, events in replies),
    )


def _attach_spanning_toggler(bed: FaninBed) -> NagleToggler:
    """One controller governing every connection (§3.2 averaging)."""
    estimators = [
        (E2EEstimator(client_sock, remote=server_sock),
         E2EEstimator(server_sock, remote=client_sock))
        for client_sock, server_sock in zip(bed.client_socks, bed.server_socks)
    ]

    def sample_fn() -> PerfSample | None:
        latencies, throughput = [], 0.0
        for client_est, server_est in estimators:
            client_sample = client_est.sample()
            server_sample = server_est.sample()
            combined = combine_estimates(client_sample, server_sample)
            if combined is not None:
                latencies.append(combined)
            if client_sample is not None:
                throughput += client_sample.throughput_per_sec
        if not latencies:
            return None
        return PerfSample(
            latency_ns=sum(latencies) / len(latencies),
            throughput_per_sec=throughput,
        )

    def apply_fn(mode: bool) -> None:
        for sock in bed.client_socks + bed.server_socks:
            sock.set_nagle(mode)

    toggler = NagleToggler(
        bed.sim,
        sample_fn=sample_fn,
        apply_fn=apply_fn,
        policy=LatencyFirstPolicy(),
        rng=bed.rng.stream("toggler"),
        config=TogglerConfig(tick_ns=msecs(16), settle_ticks=1, min_samples=2),
        initial_mode=False,
    )
    toggler.start()
    return toggler
