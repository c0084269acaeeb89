"""Shared-bottleneck contention: N flows × one link, windowed cross-shard.

The regime the decomposed fan-in cannot reach: every flow's packets
contend for the *same* bottleneck link, so the flows' sub-simulations
are coupled.  The fan-in's connections never exchange a packet and run
as an ordinary campaign; these components exchange packets every
window, so they run on the conservative windowed engine
(:mod:`repro.sim.sync`):

- **Flow component** ``i`` (components ``0..flows-1``): hosts
  ``sender{i}`` and ``rcv{i}`` with one TCP connection between them
  (the SET-heavy workload pushes data sender → receiver).  Each host's
  NIC egress is a zero-propagation access link — serialization is paid
  locally at line rate — whose receiver posts the packet to the net
  component with arrival ``now + propagation_delay_ns``.
- **Net component** (component ``flows``): one
  :class:`~repro.net.switch.Switch` whose ``rcv{i}`` ports all share
  *one* bottleneck :class:`~repro.net.link.Link` (the switch allows many
  port names per link), plus a per-sender return link for acks.  Both
  directions post back to the owning flow with the same ``+ P`` arrival.

Every cut edge therefore has latency exactly ``propagation_delay_ns``
— the engine's lookahead — and the window schedule is a pure function
of the config, never of the partition.  The components exchange
packets every window, so they run as one job in this process: there is
no partition to vary, and the golden-digest suite pins the output
(:class:`BottleneckResult`).

Scope: this experiment measures transport-level end-to-end latency
under contention (per-flow means, the merged completion stream, and
bottleneck-link stats).  It deliberately carries no §3 counter
collectors or estimators — those live on the fan-in scenarios — so the
engine's contract is exercised without coupling it to the estimator
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.apps.kvstore import KVStore
from repro.apps.redis_client import ClientConfig, RedisClient
from repro.apps.redis_server import RedisServer, ServerConfig
from repro.errors import WorkloadError
from repro.host.host import Host, HostCosts
from repro.loadgen.arrivals import Workload, poisson_schedule
from repro.loadgen.stats import summarize
from repro.net.link import Link
from repro.net.switch import Switch
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.sync import Mailbox, SyncComponent, WindowPlan, run_windowed
from repro.tcp.connect import connect_pair
from repro.tcp.socket import TcpConfig
from repro.units import KIB, msecs, to_usecs, usecs


@dataclass(frozen=True)
class BottleneckConfig:
    """The shared-bottleneck scenario's knobs.

    ``propagation_delay_ns`` is the one-way latency of every cut edge
    (host ↔ switch fabric) and therefore the engine's lookahead: smaller
    values mean more, shorter windows.  ``bottleneck_bandwidth_bps`` is
    the shared link all receiver-bound traffic serializes through;
    ``access_bandwidth_bps`` paces each host's own egress and the
    per-sender return paths.
    """

    flows: int = 4
    total_rate_per_sec: float = 8_000.0
    bottleneck_bandwidth_bps: float = 400e6
    access_bandwidth_bps: float = 10e9
    propagation_delay_ns: int = usecs(500)
    forwarding_delay_ns: int = 500
    nagle: bool = False
    workload: Workload = field(
        default_factory=lambda: Workload(value_bytes=4 * KIB)
    )
    warmup_ns: int = msecs(40)
    measure_ns: int = msecs(150)
    seed: int = 1
    queue_sample_ns: int = usecs(100)

    @property
    def horizon_ns(self) -> int:
        return self.warmup_ns + self.measure_ns

    def validate(self) -> None:
        """Raise on nonsensical parameters, as ``BenchConfig`` does."""
        if self.flows < 1:
            raise WorkloadError(f"need at least one flow, got {self.flows}")
        if self.total_rate_per_sec <= 0:
            raise WorkloadError(
                f"rate must be positive: {self.total_rate_per_sec}"
            )
        if self.warmup_ns < 0 or self.measure_ns <= 0:
            raise WorkloadError("warmup must be >= 0 and measure > 0")


@dataclass(frozen=True)
class FlowShardResult:
    """One flow component's output (picklable, partition-neutral)."""

    index: int
    mean_ns: float
    events: tuple
    events_executed: int


@dataclass(frozen=True)
class NetShardResult:
    """The net component's output: switch + bottleneck statistics."""

    index: int
    switch_packets: int
    bottleneck_packets: int
    bottleneck_bytes: int
    bottleneck_busy_ns: int
    bottleneck_peak_queue: int


def _flow_of(dst: str, flows: int) -> int:
    """Map a host name (``sender3`` / ``rcv3``) to its flow component."""
    for prefix in ("sender", "rcv"):
        if dst.startswith(prefix):
            try:
                index = int(dst[len(prefix):])
            except ValueError:
                break
            if 0 <= index < flows:
                return index
    raise WorkloadError(f"packet addressed to unknown host {dst!r}")


class _FlowComponent(SyncComponent):
    """One sender/receiver pair and its TCP connection."""

    def __init__(self, config: BottleneckConfig, index: int):
        self.index = index
        self.config = config
        sim = Simulator()
        rng = RngRegistry(config.seed)
        mailbox = Mailbox(index)
        net_index = config.flows
        propagation = config.propagation_delay_ns

        sender = Host(sim, f"sender{index}", costs=HostCosts())
        receiver = Host(sim, f"rcv{index}", costs=HostCosts())
        for host in (sender, receiver):
            cut = Link(
                sim, config.access_bandwidth_bps, 0,
                name=f"{host.name}->fabric",
            )
            host.nic.attach_egress(cut)
            cut.attach_receiver(
                lambda packet: mailbox.post(
                    sim.now + propagation, net_index, packet
                )
            )

        tcp_config = TcpConfig(nagle=config.nagle)
        client_sock, server_sock = connect_pair(
            sim, sender, receiver, tcp_config, tcp_config,
            name=f"conn{index}",
            conn_id=index + 1,
        )
        client = RedisClient(
            sim, sender, client_sock, config=ClientConfig(),
            name=f"lancet{index}",
        )
        server = RedisServer(
            sim, receiver, server_sock, store=KVStore(),
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
            config.total_rate_per_sec / config.flows,
            start_ns=sim.now,
            duration_ns=config.horizon_ns,
        )
        client.start(schedule)

        self.sim = sim
        self.client = client
        self.mailbox = mailbox
        self._nics = {
            sender.name: sender.nic,
            receiver.name: receiver.nic,
        }

    def deliver(self, message) -> None:
        packet = message.payload
        nic = self._nics.get(packet.dst)
        if nic is None:
            raise WorkloadError(
                f"flow {self.index} received a packet for {packet.dst!r}"
            )
        self.sim.call_at(message.arrival_ns, lambda: nic.receive(packet))

    def advance(self, until_ns: int) -> list:
        self.sim.run(until=until_ns)
        return self.mailbox.drain()

    def events_executed(self) -> int:
        return self.sim.events_executed

    def finish(self) -> FlowShardResult:
        config = self.config
        measure_start = config.warmup_ns
        measure_end = config.horizon_ns
        events = tuple(
            (r.completed_at, (r.kind, r.latency_ns))
            for r in self.client.records
            if measure_start <= r.completed_at <= measure_end
        )
        return FlowShardResult(
            index=self.index,
            mean_ns=summarize(
                [latency for _, (_, latency) in events]
            ).mean_ns,
            events=events,
            events_executed=self.sim.events_executed,
        )


class _NetComponent(SyncComponent):
    """The switch fabric: one shared bottleneck plus return paths."""

    def __init__(self, config: BottleneckConfig):
        self.index = config.flows
        self.config = config
        sim = Simulator()
        mailbox = Mailbox(self.index)
        propagation = config.propagation_delay_ns
        flows = config.flows

        def to_flow(packet) -> None:
            mailbox.post(
                sim.now + propagation, _flow_of(packet.dst, flows), packet
            )

        switch = Switch(
            sim, forwarding_delay_ns=config.forwarding_delay_ns
        )
        bottleneck = Link(
            sim, config.bottleneck_bandwidth_bps, 0, name="bottleneck"
        )
        bottleneck.attach_receiver(to_flow)
        for index in range(flows):
            # Every receiver-bound port shares the one bottleneck link:
            # this is where the flows contend.
            switch.attach_port(f"rcv{index}", bottleneck)
            ret = Link(
                sim, config.access_bandwidth_bps, 0,
                name=f"fabric->sender{index}",
            )
            ret.attach_receiver(to_flow)
            switch.attach_port(f"sender{index}", ret)

        self.peak_queue = 0

        def sample_queue() -> None:
            if bottleneck.queued > self.peak_queue:
                self.peak_queue = bottleneck.queued
            sim.call_after(config.queue_sample_ns, sample_queue)

        sim.call_after(config.queue_sample_ns, sample_queue)

        self.sim = sim
        self.switch = switch
        self.bottleneck = bottleneck
        self.mailbox = mailbox

    def deliver(self, message) -> None:
        packet = message.payload
        self.sim.call_at(
            message.arrival_ns, lambda: self.switch.receive(packet)
        )

    def advance(self, until_ns: int) -> list:
        self.sim.run(until=until_ns)
        return self.mailbox.drain()

    def events_executed(self) -> int:
        return self.sim.events_executed

    def finish(self) -> NetShardResult:
        return NetShardResult(
            index=self.index,
            switch_packets=self.switch.packets_forwarded,
            bottleneck_packets=self.bottleneck.packets_sent,
            bottleneck_bytes=self.bottleneck.bytes_sent,
            bottleneck_busy_ns=self.bottleneck.busy_ns,
            bottleneck_peak_queue=self.peak_queue,
        )


def _build_component(config: BottleneckConfig, index: int) -> SyncComponent:
    """Picklable component builder (component ``flows`` is the fabric)."""
    if index == config.flows:
        return _NetComponent(config)
    return _FlowComponent(config, index)


@dataclass
class BottleneckResult:
    """A shared-bottleneck run's measurements.

    Free of execution metadata in the same sense as the sharded fan-in
    result: ``windows`` and ``exchanged_events`` *are* included because
    both are pure functions of the config (the window schedule is
    partition-free and every inter-component message passes the
    exchange barrier, though all components share one process).
    """

    config: BottleneckConfig
    per_flow_mean_ns: list[float]
    aggregate_mean_ns: float
    merged_events: int
    merge_fingerprint: str
    bottleneck_utilization: float
    bottleneck_packets: int
    bottleneck_peak_queue: int
    switch_packets: int
    windows: int
    exchanged_events: int
    events_executed: int

    def render(self) -> str:
        from repro.analysis.report import format_table

        rows = [
            (f"flow {index}", to_usecs(mean))
            for index, mean in enumerate(self.per_flow_mean_ns)
        ]
        rows.append(("aggregate", to_usecs(self.aggregate_mean_ns)))
        title = (
            f"Shared bottleneck: {self.config.flows} flows x "
            f"{self.config.bottleneck_bandwidth_bps / 1e6:,.0f} Mb/s at "
            f"{self.config.total_rate_per_sec:,.0f} RPS total, "
            f"nagle={'on' if self.config.nagle else 'off'}"
        )
        return format_table(
            ["series", "mean latency (us)"], rows, title=title
        )

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


def run_shared_bottleneck(
    config: BottleneckConfig,
    shards: int = 1,
    workers: int = 1,
    policy=None,
    checkpoint=None,
    tracer=None,
    metrics=None,
) -> BottleneckResult:
    """Run the shared-bottleneck scenario through the windowed engine.

    The flows exchange packets every window, so the engine runs them as
    one job in this process: called directly, or supervised when a
    ``policy`` or ``checkpoint`` is given.  ``shards`` and ``workers``
    are accepted and ignored, because perfbench's ``bottleneck_2w``
    passes them; ``repro bottleneck`` has neither flag.  ``policy``,
    ``checkpoint``, ``tracer`` and ``metrics`` thread through
    :func:`~repro.sim.sync.run_windowed` (a checkpointed run is stored
    whole, so an interrupted one reruns from the start).
    """
    from repro.sim.shard import merge_digest, merge_streams

    config.validate()
    plan = WindowPlan(
        horizon_ns=config.horizon_ns,
        lookahead_ns=config.propagation_delay_ns,
    )
    sync = run_windowed(
        partial(_build_component, config),
        config.flows + 1, plan, policy=policy,
        checkpoint=checkpoint, tracer=tracer, metrics=metrics,
        label="bottleneck",
    )
    flows: list[FlowShardResult] = sync.results[: config.flows]
    net: NetShardResult = sync.results[config.flows]

    merged = merge_streams(
        (flow.index, list(flow.events)) for flow in flows
    )
    return BottleneckResult(
        config=config,
        per_flow_mean_ns=[flow.mean_ns for flow in flows],
        aggregate_mean_ns=summarize(
            [latency for _, _, _, (_, latency) in merged]
        ).mean_ns,
        merged_events=len(merged),
        merge_fingerprint=merge_digest(merged),
        bottleneck_utilization=net.bottleneck_busy_ns / config.horizon_ns,
        bottleneck_packets=net.bottleneck_packets,
        bottleneck_peak_queue=net.bottleneck_peak_queue,
        switch_packets=net.switch_packets,
        windows=sync.windows,
        exchanged_events=sync.exchanged_events,
        events_executed=sync.events_executed,
    )
