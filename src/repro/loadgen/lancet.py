"""The benchmark harness: build the two-host testbed, load it, measure.

Mirrors the paper's methodology (§4): one machine runs the Redis-like
server, the other the load generator; application and network contexts
are pinned to dedicated cores; a load is applied for a warmup period and
then a measurement window, during which we record per-request latency,
CPU utilization, and the queue-state counters both online (metadata
exchange) and for offline analysis (the ethtool-counters analogue).

:func:`build_testbed` is exposed separately so experiments needing
custom control loops (the dynamic toggler, AIMD) can assemble the same
testbed and drive it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.analysis.counters import CounterClock, CounterCollector
from repro.analysis.offline import OfflineEstimate, throughput_weighted
from repro.apps.kvstore import KVStore
from repro.apps.redis_client import ClientConfig, RedisClient
from repro.apps.redis_server import RedisServer, ServerConfig
from repro.core.exchange import MetadataExchange
from repro.core.hints import HintSession
from repro.errors import WorkloadError
from repro.faults import FaultInjector, FaultPlan
from repro.host.host import Host, HostCosts
from repro.loadgen.arrivals import Workload, poisson_schedule, uniform_schedule
from repro.loadgen.stats import LatencySummary, summarize, throughput_per_sec
from repro.net.nic import NicConfig
from repro.net.topology import PointToPoint
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connect import connect_pair
from repro.tcp.socket import TcpConfig
from repro.units import SEC, msecs, usecs


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run's full configuration."""

    rate_per_sec: float
    workload: Workload = field(default_factory=Workload)
    nagle: bool = False
    nagle_mode: str = "classic"
    autocork: bool = False
    connections: int = 1
    arrival: str = "poisson"
    warmup_ns: int = msecs(100)
    measure_ns: int = msecs(400)
    seed: int = 1
    client_cpu_factor: float = 1.0
    client_costs: HostCosts = field(default_factory=HostCosts)
    server_costs: HostCosts = field(default_factory=HostCosts)
    client_config: ClientConfig = field(default_factory=ClientConfig)
    server_config: ServerConfig = field(default_factory=ServerConfig)
    nic_config: NicConfig = field(default_factory=NicConfig)
    bandwidth_bps: float = 100e9
    propagation_delay_ns: int = usecs(10)
    counter_period_ns: int = msecs(10)
    exchange_period_ns: int = msecs(10)
    use_hints: bool = True
    recv_buffer_bytes: int = 4 * 1024 * 1024
    min_rto_ns: int = msecs(200)
    fault_plan: FaultPlan | None = None

    def validate(self) -> None:
        """Raise on nonsensical parameters."""
        if self.fault_plan is not None:
            self.fault_plan.validate()
        if self.rate_per_sec <= 0:
            raise WorkloadError(f"rate must be positive: {self.rate_per_sec}")
        if self.arrival not in ("poisson", "uniform"):
            raise WorkloadError(f"unknown arrival process {self.arrival!r}")
        if self.warmup_ns < 0 or self.measure_ns <= 0:
            raise WorkloadError("warmup must be >= 0 and measure > 0")
        if self.connections < 1:
            raise WorkloadError(
                f"need at least one connection, got {self.connections}"
            )


@dataclass
class Connection:
    """One connection's endpoints and instrumentation."""

    client_sock: object
    server_sock: object
    client: RedisClient
    client_exchange: MetadataExchange
    server_exchange: MetadataExchange
    hint_session: HintSession | None
    collector: CounterCollector


@dataclass
class Testbed:
    """Everything :func:`build_testbed` assembles.

    ``conns`` holds every connection; the flat fields alias connection
    zero for the (common) single-connection experiments.
    """

    config: BenchConfig
    sim: Simulator
    rng: RngRegistry
    client_host: Host
    server_host: Host
    server: RedisServer
    conns: list[Connection]
    clock: CounterClock  # samples every connection's collector
    faults: FaultInjector | None = None
    tracer: object = None  # repro.obs Tracer; NULL_TRACER when untraced
    # The counter pipeline every testbed runs: flat sample columns (see
    # repro.analysis.counters).  Read by benchmarks that report it.
    backend: ClassVar[str] = "columns"

    @property
    def client_sock(self):
        """Connection 0's client socket."""
        return self.conns[0].client_sock

    @property
    def server_sock(self):
        """Connection 0's server socket."""
        return self.conns[0].server_sock

    @property
    def client(self) -> RedisClient:
        """Connection 0's client."""
        return self.conns[0].client

    @property
    def client_exchange(self) -> MetadataExchange:
        """Connection 0's client-side exchange."""
        return self.conns[0].client_exchange

    @property
    def server_exchange(self) -> MetadataExchange:
        """Connection 0's server-side exchange."""
        return self.conns[0].server_exchange

    @property
    def hint_session(self) -> HintSession | None:
        """Connection 0's hint session."""
        return self.conns[0].hint_session

    @property
    def collector(self) -> CounterCollector:
        """Connection 0's counter collector."""
        return self.conns[0].collector

    def start_load(self) -> None:
        """Pre-populate the store and spawn server and clients."""
        workload = self.config.workload
        for index in range(workload.keyspace):
            self.server.store.set(workload.make_key(index), workload.value_bytes)
        self.server.start()
        schedule_fn = (
            poisson_schedule if self.config.arrival == "poisson" else uniform_schedule
        )
        per_connection_rate = self.config.rate_per_sec / len(self.conns)
        for index, conn in enumerate(self.conns):
            schedule = schedule_fn(
                self.rng.stream(f"arrivals.{index}"),
                workload,
                per_connection_rate,
                start_ns=self.sim.now,
                duration_ns=self.config.warmup_ns + self.config.measure_ns,
            )
            conn.client.start(schedule)


@dataclass
class RunResult:
    """Everything one benchmark run reports."""

    config: BenchConfig
    offered_rate: float
    achieved_rate: float
    latency: LatencySummary                 # from scheduled creation
    send_latency: LatencySummary            # from the send syscall
    per_kind: dict[str, LatencySummary]
    estimate: OfflineEstimate | None        # §3.2 combination, bytes
    estimate_rps: float | None              # estimate λ scaled to requests
    hint_latency_ns: float | None           # hint-queue Little's law
    hint_rps: float | None
    client_app_util: float
    client_net_util: float
    server_app_util: float
    server_net_util: float
    server_mean_batch: float
    client_wire_packets: int
    server_deliveries: int

    @property
    def client_cpu(self) -> float:
        """Client machine utilization (both pinned cores averaged),
        Figure 2a's metric."""
        return (self.client_app_util + self.client_net_util) / 2

    @property
    def server_cpu(self) -> float:
        """Server machine utilization, Figure 2b's metric."""
        return (self.server_app_util + self.server_net_util) / 2


def build_testbed(config: BenchConfig, tracer=None) -> Testbed:
    """Assemble hosts, sockets, apps and instrumentation for one run.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when given its
    clock is bound to the run's simulator and every instrumented layer
    (hosts' protocol taps, exchanges, counter collectors, fault hooks)
    emits into it.  Tracing never perturbs the run: emit sites draw no
    randomness and schedule no events, so results with a disabled (or
    absent) tracer are byte-identical.
    """
    from repro.obs.tracer import NULL_TRACER

    config.validate()
    sim = Simulator()
    rng = RngRegistry(config.seed)
    if tracer is None:
        tracer = NULL_TRACER
    else:
        tracer.bind_clock(sim)
    client_costs = config.client_costs.scaled(config.client_cpu_factor)
    client_host = Host(
        sim, "client", costs=client_costs, nic_config=config.nic_config,
        tracer=tracer,
    )
    server_host = Host(
        sim, "server", costs=config.server_costs, nic_config=config.nic_config,
        tracer=tracer,
    )
    # The fault layer is strictly opt-in: without a (non-no-op) plan no
    # injector exists, no hook is installed anywhere, and no fault RNG
    # stream is ever created — runs without faults stay byte-identical.
    faults = None
    if config.fault_plan is not None and not config.fault_plan.is_noop:
        faults = FaultInjector(sim, config.fault_plan, rng, tracer=tracer)
    PointToPoint.connect(
        sim,
        client_host.nic,
        server_host.nic,
        bandwidth_bps=config.bandwidth_bps,
        propagation_delay_ns=config.propagation_delay_ns,
        fault_injector=faults,
    )
    tcp_config = TcpConfig(
        nagle=config.nagle,
        nagle_mode=config.nagle_mode,
        autocork=config.autocork,
        recv_buffer_bytes=config.recv_buffer_bytes,
        tso_max_bytes=config.nic_config.tso_max_bytes,
        min_rto_ns=config.min_rto_ns,
    )
    # Under faults the exchanges get their gap sanity check: a corrupt
    # time32 unwraps to a jump of minutes, so a one-second ceiling never
    # rejects a legitimate state (blackouts here last milliseconds) while
    # catching every time-counter corruption.
    exchange_gap = (
        max(64 * config.exchange_period_ns, SEC) if faults is not None else None
    )
    conns: list[Connection] = []
    for index in range(config.connections):
        client_sock, server_sock = connect_pair(
            sim, client_host, server_host, tcp_config, tcp_config,
            name=f"redis.{index}",
        )
        hint_session = (
            HintSession(client_host.clock) if config.use_hints else None
        )
        client_exchange = MetadataExchange(
            sim, client_sock, period_ns=config.exchange_period_ns,
            hint_session=hint_session, max_gap_ns=exchange_gap,
            tracer=tracer,
        )
        server_exchange = MetadataExchange(
            sim, server_sock, period_ns=config.exchange_period_ns,
            max_gap_ns=exchange_gap, tracer=tracer,
        )
        if faults is not None:
            faults.attach_exchange(client_exchange, f"client.{index}")
            faults.attach_exchange(server_exchange, f"server.{index}")
            faults.attach_receiver(server_sock)
        client = RedisClient(
            sim, client_host, client_sock, config=config.client_config,
            hint_session=hint_session, name=f"lancet.{index}",
        )
        collector = CounterCollector(
            sim, client_sock, server_sock,
            period_ns=config.counter_period_ns, tracer=tracer,
        )
        conns.append(
            Connection(
                client_sock=client_sock,
                server_sock=server_sock,
                client=client,
                client_exchange=client_exchange,
                server_exchange=server_exchange,
                hint_session=hint_session,
                collector=collector,
            )
        )
    server = RedisServer(
        sim, server_host, conns[0].server_sock, store=KVStore(),
        config=config.server_config,
        extra_sockets=[conn.server_sock for conn in conns[1:]],
    )
    return Testbed(
        config=config,
        sim=sim,
        rng=rng,
        client_host=client_host,
        server_host=server_host,
        server=server,
        conns=conns,
        clock=CounterClock(sim, [conn.collector for conn in conns]),
        faults=faults,
        tracer=tracer,
    )


def run_benchmark(
    config: BenchConfig,
    tweak: Callable[[Testbed], None] | None = None,
    tracer=None,
    watchdog=None,
) -> RunResult:
    """Run one benchmark to completion and summarize.

    ``tweak`` runs after testbed assembly and before load start — the
    hook experiments use to attach controllers (toggler, AIMD) or extra
    instrumentation.  ``tracer`` is forwarded to :func:`build_testbed`.
    ``watchdog`` (a :class:`repro.supervise.watchdog.Watchdog`) bounds
    the run: its simulated-time budget is checked against the config's
    horizon before anything is built, and its event budget arms the
    simulator so a runaway config raises a typed
    :class:`~repro.errors.WatchdogError` instead of spinning.
    """
    if watchdog is not None:
        watchdog.validate()
        horizon_ns = config.warmup_ns + config.measure_ns
        if (
            watchdog.max_sim_time_ns is not None
            and horizon_ns > watchdog.max_sim_time_ns
        ):
            from repro.errors import WatchdogError

            raise WatchdogError(
                f"run horizon {horizon_ns}ns (warmup + measure) exceeds "
                f"the watchdog budget of {watchdog.max_sim_time_ns}ns"
            )
    bed = build_testbed(config, tracer=tracer)
    if watchdog is not None and watchdog.max_events is not None:
        bed.sim.set_event_budget(watchdog.max_events)
    if tweak is not None:
        tweak(bed)
    bed.start_load()

    measure_start = bed.sim.now + config.warmup_ns
    measure_end = measure_start + config.measure_ns

    def begin_measurement() -> None:
        bed.client_host.reset_utilization_windows()
        bed.server_host.reset_utilization_windows()
        bed.clock.start()
        for conn in bed.conns:
            if conn.hint_session is not None:
                conn.hint_session.sample()  # reset the interval baseline

    bed.sim.call_at(measure_start, begin_measurement)
    bed.sim.run(until=measure_end)
    bed.clock.stop()

    return _summarize_run(bed, measure_start, measure_end)


def _summarize_run(bed: Testbed, start: int, end: int) -> RunResult:
    config = bed.config
    records = [
        r
        for conn in bed.conns
        for r in conn.client.records
        if start <= r.completed_at <= end
    ]
    per_kind = {}
    for kind in ("SET", "GET"):
        kind_samples = [r.latency_ns for r in records if r.kind == kind]
        if kind_samples:
            per_kind[kind] = summarize(kind_samples)

    # Per-connection §3.2 estimates, averaged across the connections the
    # (hypothetical) batching policy spans — weighted by each
    # connection's estimated throughput, as uniform averaging would let
    # idle connections dilute the estimate.  The collector answers the
    # window query from its sample columns.
    estimate = None
    estimate_rps = None
    per_conn = [
        conn.collector.window_estimate(start, end)
        for conn in bed.conns
        if conn.collector.sample_count >= 2
    ]
    if per_conn:
        estimate = per_conn[0]
        averaged = None
        if len(bed.conns) > 1:
            averaged = throughput_weighted(
                (e.latency_ns, e.throughput_per_sec) for e in per_conn
            )
        if averaged is not None:
            blended, total_tput = averaged
            estimate = OfflineEstimate(
                start=start,
                end=end,
                client_view_ns=None,
                server_view_ns=None,
                latency_ns=blended,
                throughput_per_sec=total_tput,
            )
        mean_request = config.workload.mean_request_wire_bytes()
        if mean_request > 0 and estimate.defined:
            estimate_rps = estimate.throughput_per_sec / mean_request

    hint_samples = [
        conn.hint_session.sample()
        for conn in bed.conns
        if conn.hint_session is not None
    ]
    hint = throughput_weighted(
        (avgs.latency_ns, avgs.throughput_per_sec)
        for avgs in hint_samples
        if avgs is not None
    )
    hint_latency, hint_rps = hint if hint is not None else (None, None)

    return RunResult(
        config=config,
        offered_rate=config.rate_per_sec,
        achieved_rate=throughput_per_sec(len(records), end - start),
        latency=summarize([r.latency_ns for r in records]),
        send_latency=summarize([r.send_latency_ns for r in records]),
        per_kind=per_kind,
        estimate=estimate,
        estimate_rps=estimate_rps,
        hint_latency_ns=hint_latency,
        hint_rps=hint_rps,
        client_app_util=bed.client_host.app_core.utilization(),
        client_net_util=bed.client_host.net_core.utilization(),
        server_app_util=bed.server_host.app_core.utilization(),
        server_net_util=bed.server_host.net_core.utilization(),
        server_mean_batch=bed.server.mean_batch_size,
        client_wire_packets=bed.client_host.nic.tx_wire_packets,
        server_deliveries=bed.server_host.nic.rx_deliveries,
    )
