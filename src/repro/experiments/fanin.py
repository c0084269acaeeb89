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
from functools import partial

from repro.analysis.counters import CounterClock, CounterCollector
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
from repro.sim.sync import SyncComponent, WindowPlan, run_windowed
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
    server_host: Host
    client_hosts: list[Host]
    client_socks: list
    server_socks: list
    clients: list[RedisClient]
    server: RedisServer
    collectors: list[CounterCollector]
    clock: CounterClock  # samples the collectors


def build_fanin(config: FaninConfig) -> FaninBed:
    """Assemble N client machines, a switch, and one server."""
    sim = Simulator()
    rng = RngRegistry(config.seed)
    server_host = Host(sim, "server", costs=HostCosts())
    client_hosts = [
        Host(sim, f"client{index}", costs=HostCosts())
        for index in range(config.clients)
    ]
    Star.connect(
        sim,
        {host.name: host.nic for host in client_hosts + [server_host]},
        propagation_delay_ns=config.propagation_delay_ns,
    )
    tcp_config = TcpConfig(nagle=config.nagle)
    client_socks, server_socks, clients, collectors = [], [], [], []
    for index, host in enumerate(client_hosts):
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
        sim=sim, rng=rng, server_host=server_host, client_hosts=client_hosts,
        client_socks=client_socks, server_socks=server_socks,
        clients=clients, server=server, collectors=collectors,
        clock=CounterClock(sim, collectors),
    )


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

    workload = config.workload
    for index in range(workload.keyspace):
        bed.server.store.set(workload.make_key(index), workload.value_bytes)
    bed.server.start()
    per_client_rate = config.total_rate_per_sec / config.clients
    for index, client in enumerate(bed.clients):
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
    defined = [e for e in estimates if e.defined and e.throughput_per_sec > 0]
    averaged = None
    if defined:
        total = sum(e.throughput_per_sec for e in defined)
        averaged = sum(e.latency_ns * e.throughput_per_sec for e in defined) / total

    return FaninResult(
        config=config,
        per_client_mean_ns=per_client,
        aggregate_mean_ns=summarize(all_samples).mean_ns,
        averaged_estimate_ns=averaged,
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


class _FaninSyncComponent(SyncComponent):
    """One decomposed fan-in connection as a windowed-engine component.

    The decomposed model: this client and a server *replica* of its own,
    joined by the same switch fabric — not the shared, contended server
    of :func:`run_fanin` (see docs/PERFORMANCE.md for when each model
    applies).  Everything partition-relevant is keyed by the *global*
    connection index — the RNG stream (``arrivals.{index}``), host and
    socket names — so the output is a pure function of ``(config,
    index)``, never of the shard that happened to run it.

    Connections never exchange packets, so the component has infinite
    lookahead: it posts nothing and must receive nothing.
    """

    def __init__(self, config: FaninConfig, index: int):
        sim = Simulator()
        rng = RngRegistry(config.seed)
        server_host = Host(sim, "server", costs=HostCosts())
        client_host = Host(sim, f"client{index}", costs=HostCosts())
        Star.connect(
            sim,
            {client_host.name: client_host.nic,
             server_host.name: server_host.nic},
            propagation_delay_ns=config.propagation_delay_ns,
        )
        tcp_config = TcpConfig(nagle=config.nagle)
        client_sock, server_sock = connect_pair(
            sim, client_host, server_host, tcp_config, tcp_config,
            name=f"conn{index}",
        )
        client = RedisClient(
            sim, client_host, client_sock, config=ClientConfig(),
            name=f"lancet{index}",
        )
        collector = CounterCollector(
            sim, client_sock, server_sock, period_ns=msecs(10)
        )
        clock = CounterClock(sim, [collector])
        server = RedisServer(
            sim, server_host, server_sock, store=KVStore(),
            config=ServerConfig(),
        )

        workload = config.workload
        for key_index in range(workload.keyspace):
            server.store.set(
                workload.make_key(key_index), workload.value_bytes
            )
        server.start()
        schedule = poisson_schedule(
            rng.stream(f"arrivals.{index}"),
            workload,
            config.total_rate_per_sec / config.clients,
            start_ns=sim.now,
            duration_ns=config.warmup_ns + config.measure_ns,
        )
        client.start(schedule)

        measure_start = sim.now + config.warmup_ns
        measure_end = measure_start + config.measure_ns

        def begin() -> None:
            server_host.reset_utilization_windows()
            clock.start()

        sim.call_at(measure_start, begin)

        self.index = index
        self.sim = sim
        self.client = client
        self.clock = clock
        self.collector = collector
        self.server_host = server_host
        self.measure_start = measure_start
        self.measure_end = measure_end

    def deliver(self, message) -> None:
        from repro.errors import WorkloadError

        raise WorkloadError(
            "fan-in connections are independent; nothing should be "
            f"addressed to component {self.index}"
        )

    def advance(self, until_ns: int) -> list:
        self.sim.run(until=until_ns)
        return []

    def events_executed(self) -> int:
        return self.sim.events_executed

    def finish(self) -> ConnectionShard:
        """Stop collection and package the shard-neutral output."""
        self.clock.stop()
        events = tuple(
            (r.completed_at, (r.kind, r.latency_ns))
            for r in self.client.records
            if self.measure_start <= r.completed_at <= self.measure_end
        )
        estimate_latency = None
        estimate_throughput = None
        if self.collector.sample_count >= 2:
            estimate = self.collector.window_estimate(
                self.measure_start, self.measure_end
            )
            estimate_latency = estimate.latency_ns
            estimate_throughput = estimate.throughput_per_sec
        return ConnectionShard(
            index=self.index,
            mean_ns=summarize(
                [latency for _, (_, latency) in events]
            ).mean_ns,
            events=events,
            estimate_latency_ns=estimate_latency,
            estimate_throughput=estimate_throughput,
            server_net_util=self.server_host.net_core.utilization(),
        )


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
    tracer=None,
    metrics=None,
) -> ShardedFaninResult:
    """Run the decomposed fan-in scenario on the windowed engine.

    Each connection is one :class:`_FaninSyncComponent`; connections
    are partitioned by :class:`~repro.sim.shard.ShardPlan` (round-robin
    on global index) and advanced by
    :func:`~repro.sim.sync.run_windowed` on a supervised worker pool.
    With no cross-connection links the lookahead is infinite, so the
    whole horizon is one window.  ``policy``, ``checkpoint`` and
    ``tracer`` thread through the engine exactly as for
    :func:`~repro.experiments.bottleneck.run_shared_bottleneck`.  The
    per-connection completion streams are recombined with the
    deterministic :func:`~repro.sim.shard.merge_streams` order
    ``(timestamp, connection, sequence)``.  Output is byte-identical
    for every ``(shards, workers)`` combination — the contract CI
    enforces by diffing ``--shards 2 --workers 2`` against the serial
    run.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    the ``sim.shard.merged_events`` counter beside the engine's own.
    """
    from repro.sim.shard import merge_digest, merge_streams

    plan = WindowPlan(
        horizon_ns=config.warmup_ns + config.measure_ns, lookahead_ns=None
    )
    sync = run_windowed(
        partial(_FaninSyncComponent, config),
        config.clients, plan,
        shards=shards, workers=workers, policy=policy,
        checkpoint=checkpoint, tracer=tracer, metrics=metrics,
        label="fanin",
    )
    conns: list[ConnectionShard] = sync.results
    merged = merge_streams((conn.index, list(conn.events)) for conn in conns)
    if metrics is not None:
        metrics.counter("sim.shard.merged_events").inc(len(merged))

    defined = [
        conn for conn in conns
        if conn.estimate_latency_ns is not None
        and conn.estimate_throughput is not None
        and conn.estimate_throughput > 0
    ]
    averaged = None
    if defined:
        total = sum(conn.estimate_throughput for conn in defined)
        averaged = sum(
            conn.estimate_latency_ns * conn.estimate_throughput
            for conn in defined
        ) / total

    utils = [conn.server_net_util for conn in conns]
    return ShardedFaninResult(
        config=config,
        per_client_mean_ns=[conn.mean_ns for conn in conns],
        aggregate_mean_ns=summarize(
            [latency for _, _, _, (_, latency) in merged]
        ).mean_ns,
        averaged_estimate_ns=averaged,
        server_net_util_mean=sum(utils) / len(utils),
        merged_events=len(merged),
        merge_fingerprint=merge_digest(merged),
        events_executed=sync.events_executed,
    )


def run_fanin_many(
    configs: list[FaninConfig],
    with_toggler: bool = False,
    workers: int = 1,
    policy=None,
    checkpoint=None,
) -> list[FaninResult]:
    """Run several fan-in scenarios, optionally over a worker pool.

    Each scenario is an independent deterministic simulation, so the
    results are identical to running :func:`run_fanin` serially over
    ``configs`` (and come back in the same order).  The campaign is
    supervised (see :mod:`repro.supervise`): ``policy`` tunes retry and
    timeout handling, and ``checkpoint`` (a store or directory) makes
    the batch resumable.
    """
    from repro.parallel import ParallelRunner, _require_all_ok

    runner = ParallelRunner(workers, policy=policy)
    outcomes = runner.map_outcomes(
        run_fanin,
        [(config, with_toggler) for config in configs],
        checkpoint=checkpoint,
    )
    return _require_all_ok(outcomes)


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
