"""Ablation experiments (DESIGN.md A1-A5).

- :func:`run_units_ablation` — §3.3's message-unit ladder: how accurate
  is the end-to-end estimate when the three queues are tracked in
  bytes, packets, send-syscalls, or application hints, on homogeneous
  and on mixed workloads.
- :func:`run_toggler_ablation` — §5 dynamic toggling: the ε-greedy
  controller against both static configurations across the load range;
  it should track the better static mode everywhere.
- :func:`run_exchange_ablation` — §5 metadata exchange cadence:
  estimate accuracy and option-byte overhead vs exchange period
  (Little's law should be insensitive to the period).
- :func:`run_granularity_ablation` — §5 toggling granularity and EWMA
  weight sweep.
- :func:`run_aimd_ablation` — §5 better batching heuristics: the AIMD
  batch-limit controller against static Nagle on/off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.offline import estimate_between, CounterSample
from repro.analysis.report import format_table
from repro.core.aimd import AimdBatchLimiter, AimdConfig
from repro.core.estimator import E2EEstimator, combine_estimates
from repro.core.policy import LatencyFirstPolicy, PerfSample
from repro.core.qstate import TripleSnapshot
from repro.core.semantic import (
    ByteUnits,
    MessageUnits,
    PacketUnits,
    SyscallUnits,
    attach_units,
)
from repro.core.toggler import NagleToggler, TogglerConfig
from repro.experiments.fig4a import default_config
from repro.loadgen.lancet import run_benchmark
from repro.loadgen.arrivals import Workload
from repro.parallel import run_campaign
from repro.units import KIB, msecs, to_usecs, usecs


# ---------------------------------------------------------------------------
# A1 — message units.
# ---------------------------------------------------------------------------


@dataclass
class UnitsAblationRow:
    """Accuracy of one unit granularity on one workload."""

    workload: str
    unit: str
    measured_ns: float
    estimated_ns: float | None

    @property
    def error_fraction(self) -> float | None:
        """|estimate − measured| / measured."""
        if self.estimated_ns is None or self.measured_ns <= 0:
            return None
        return abs(self.estimated_ns - self.measured_ns) / self.measured_ns


@dataclass
class UnitsAblationResult:
    """All unit × workload cells."""

    rows: list[UnitsAblationRow]

    def render(self) -> str:
        """A1 as a table."""
        return format_table(
            ["workload", "unit", "measured (us)", "estimate (us)", "error"],
            [
                (
                    row.workload,
                    row.unit,
                    to_usecs(row.measured_ns),
                    to_usecs(row.estimated_ns) if row.estimated_ns else float("nan"),
                    f"{row.error_fraction:.1%}" if row.error_fraction is not None else "-",
                )
                for row in self.rows
            ],
            title="A1: estimate accuracy by message unit (send->read latency)",
        )


_UNIT_CLASSES: dict[str, type[MessageUnits]] = {
    "bytes": ByteUnits,
    "packets": PacketUnits,
    "syscalls": SyscallUnits,
}


def run_units_ablation(
    rate: float = 15_000.0, measure_ns: int = msecs(120), nagle: bool = True
) -> UnitsAblationResult:
    """A1: unit-granularity accuracy on homogeneous and mixed loads.

    Defaults to the regime where Figure 4b shows byte granularity
    failing: Nagle enabled at moderate load, where batching delays are
    invisible to byte-weighted averages on the mixed workload.
    """
    workloads = {
        "SET-only": Workload(set_ratio=1.0, value_bytes=16 * KIB),
        "95:5 SET:GET": Workload(set_ratio=0.95, value_bytes=16 * KIB),
    }
    rows: list[UnitsAblationRow] = []
    for workload_name, workload in workloads.items():
        config = replace(
            default_config(measure_ns=measure_ns),
            rate_per_sec=rate,
            workload=workload,
            nagle=nagle,
        )
        holder: dict = {}

        def tweak(bed, holder=holder):
            holder["bed"] = bed
            holder["adapters"] = {
                name: attach_units(bed.client_sock, bed.server_sock, cls)
                for name, cls in _UNIT_CLASSES.items()
            }
            holder["snapshots"] = {}

            def snap(tag):
                holder["snapshots"][tag] = {
                    name: (
                        TripleSnapshot.capture(pair[0]),
                        TripleSnapshot.capture(pair[1]),
                    )
                    for name, pair in holder["adapters"].items()
                }

            bed.sim.call_at(bed.sim.now + config.warmup_ns, lambda: snap("start"))
            bed.sim.call_at(
                bed.sim.now + config.warmup_ns + config.measure_ns - 1,
                lambda: snap("end"),
            )

        result = run_benchmark(config, tweak=tweak)
        measured = result.send_latency.mean_ns
        for unit_name in _UNIT_CLASSES:
            start_cli, start_srv = holder["snapshots"]["start"][unit_name]
            end_cli, end_srv = holder["snapshots"]["end"][unit_name]
            estimate = estimate_between(
                CounterSample(time=0, client=start_cli, server=start_srv),
                CounterSample(time=1, client=end_cli, server=end_srv),
            )
            rows.append(
                UnitsAblationRow(
                    workload=workload_name,
                    unit=unit_name,
                    measured_ns=measured,
                    estimated_ns=estimate.latency_ns,
                )
            )
        rows.append(
            UnitsAblationRow(
                workload=workload_name,
                unit="hints",
                measured_ns=measured,
                estimated_ns=result.hint_latency_ns,
            )
        )
    return UnitsAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# A2 — dynamic toggling.
# ---------------------------------------------------------------------------


@dataclass
class TogglerAblationRow:
    """One offered load: static off, static on, dynamic toggling."""

    rate: float
    off_latency_ns: float
    on_latency_ns: float
    toggler_latency_ns: float
    toggles: int
    final_mode: bool

    @property
    def best_static_ns(self) -> float:
        """The better static configuration at this load."""
        return min(self.off_latency_ns, self.on_latency_ns)

    @property
    def regret_fraction(self) -> float:
        """How far the toggler is above the best static choice."""
        return (self.toggler_latency_ns - self.best_static_ns) / self.best_static_ns


@dataclass
class TogglerAblationResult:
    """The toggler across the load range."""

    rows: list[TogglerAblationRow]

    def render(self) -> str:
        """A2 as a table."""
        return format_table(
            ["rate", "static off (us)", "static on (us)", "toggler (us)",
             "regret", "toggles", "final mode"],
            [
                (
                    int(row.rate),
                    to_usecs(row.off_latency_ns),
                    to_usecs(row.on_latency_ns),
                    to_usecs(row.toggler_latency_ns),
                    f"{row.regret_fraction:+.1%}",
                    row.toggles,
                    "on" if row.final_mode else "off",
                )
                for row in self.rows
            ],
            title="A2: epsilon-greedy dynamic toggling vs static Nagle settings",
        )


def start_toggler(
    bed, socks, sample_fn, config: TogglerConfig, policy=None,
    loss_signal_fn=None,
) -> NagleToggler:
    """Start an ε-greedy toggler fed by ``sample_fn`` that flips Nagle
    on each of ``socks`` in order, starting off; it draws the bed's
    ``toggler`` stream and traces to the bed's tracer, if any."""

    def apply_fn(mode: bool) -> None:
        for sock in socks:
            sock.set_nagle(mode)

    toggler = NagleToggler(
        bed.sim,
        sample_fn=sample_fn,
        apply_fn=apply_fn,
        policy=policy or LatencyFirstPolicy(),
        rng=bed.rng.stream("toggler"),
        config=config,
        initial_mode=False,
        loss_signal_fn=loss_signal_fn,
        tracer=getattr(bed, "tracer", None),
    )
    toggler.start()
    return toggler


def hedged_sample(client_estimator, server_estimator) -> PerfSample | None:
    """The §3.2 two-sided hedge: the larger of both estimates, with the
    client's throughput unless only the server's view is defined."""
    client_sample = client_estimator.sample()
    server_sample = server_estimator.sample()
    latency = combine_estimates(client_sample, server_sample)
    if latency is None:
        return None
    throughput = (
        client_sample.throughput_per_sec
        if client_sample is not None and client_sample.defined
        else server_sample.throughput_per_sec
    )
    return PerfSample(latency_ns=latency, throughput_per_sec=throughput)


def attach_toggler(
    bed,
    config: TogglerConfig | None = None,
    policy=None,
    on_demand_exchange: bool = False,
) -> NagleToggler:
    """Wire an estimate-fed ε-greedy toggler onto a testbed.

    The sample function runs wire-mode estimators at *both* endpoints
    (remote queue states arrive via the metadata exchange) and takes the
    maximum of the two views (:func:`hedged_sample`) — the paper's §3.2
    hedge against underestimation, which matters here: the client's
    byte-weighted view barely sees the Nagle tail stall, while the
    server's view does.  Nagle flips on both endpoints.

    With ``on_demand_exchange`` the controller requests a state exchange
    each tick instead of relying on the periodic cadence — the §5
    "we can do it on-demand" variant; the next outgoing segment in each
    direction then carries fresh counters regardless of the period.
    """
    tracer = getattr(bed, "tracer", None)
    client_estimator = E2EEstimator(
        bed.client_sock, exchange=bed.client_exchange, tracer=tracer,
    )
    server_estimator = E2EEstimator(
        bed.server_sock, exchange=bed.server_exchange, tracer=tracer,
    )

    def sample_fn() -> PerfSample | None:
        if on_demand_exchange:
            bed.client_exchange.request()
            bed.server_exchange.request()
        return hedged_sample(client_estimator, server_estimator)

    return start_toggler(
        bed, (bed.client_sock, bed.server_sock), sample_fn,
        config or TogglerConfig(tick_ns=msecs(4)), policy=policy,
    )


def run_toggler_ablation(
    rates: tuple[float, ...] = (10_000.0, 30_000.0, 50_000.0, 65_000.0),
    measure_ns: int = msecs(300),
    toggler_config: TogglerConfig | None = None,
    workers: int = 1,
    policy=None,
    checkpoint=None,
    watchdog=None,
) -> TogglerAblationResult:
    """A2: dynamic toggling vs static settings across loads.

    The default tick is 16 ms: mode attribution needs the transition
    backlog to drain, and on this substrate the drain timescale near
    the knee is ~20 ms (A4 sweeps the granularity explicitly).

    ``workers > 1`` parallelizes the static off/on reference runs; the
    dynamic runs stay serial because the toggler attaches through an
    in-process tweak whose controller state is inspected afterwards.
    ``policy``/``checkpoint``/``watchdog`` supervise the static
    campaign (see :func:`repro.parallel.run_campaign`).
    """
    if toggler_config is None:
        toggler_config = TogglerConfig(
            tick_ns=msecs(16), settle_ticks=1, min_samples=2
        )
    bases = [
        replace(default_config(measure_ns=measure_ns), rate_per_sec=rate)
        for rate in rates
    ]
    statics = run_campaign(
        [replace(base, nagle=False) for base in bases]
        + [replace(base, nagle=True) for base in bases],
        workers=workers,
        policy=policy, checkpoint=checkpoint, watchdog=watchdog,
    )
    rows = []
    for index, (rate, base) in enumerate(zip(rates, bases)):
        off = statics[index]
        on = statics[len(bases) + index]
        holder: dict = {}

        def tweak(bed, holder=holder, toggler_config=toggler_config):
            holder["toggler"] = attach_toggler(bed, config=toggler_config)

        dynamic = run_benchmark(replace(base, nagle=False), tweak=tweak)
        toggler = holder["toggler"]
        rows.append(
            TogglerAblationRow(
                rate=rate,
                off_latency_ns=off.latency.mean_ns,
                on_latency_ns=on.latency.mean_ns,
                toggler_latency_ns=dynamic.latency.mean_ns,
                toggles=toggler.toggles,
                final_mode=toggler.mode,
            )
        )
    return TogglerAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# A3 — exchange cadence.
# ---------------------------------------------------------------------------


@dataclass
class ExchangeAblationRow:
    """One exchange period's accuracy and overhead."""

    period_ns: int
    measured_ns: float
    estimated_ns: float | None
    states_sent: int
    option_bytes: int

    @property
    def error_fraction(self) -> float | None:
        """|estimate − measured| / measured."""
        if self.estimated_ns is None or self.measured_ns <= 0:
            return None
        return abs(self.estimated_ns - self.measured_ns) / self.measured_ns


@dataclass
class ExchangeAblationResult:
    """Accuracy/overhead across exchange periods."""

    rows: list[ExchangeAblationRow]

    def render(self) -> str:
        """A3 as a table."""
        return format_table(
            ["period (ms)", "measured (us)", "wire est (us)", "error",
             "states", "option bytes"],
            [
                (
                    row.period_ns / 1e6,
                    to_usecs(row.measured_ns),
                    to_usecs(row.estimated_ns) if row.estimated_ns else float("nan"),
                    f"{row.error_fraction:.1%}" if row.error_fraction is not None else "-",
                    row.states_sent,
                    row.option_bytes,
                )
                for row in self.rows
            ],
            title="A3: estimate accuracy vs metadata-exchange period",
        )


def run_exchange_ablation(
    periods_ns: tuple[int, ...] = (msecs(1), msecs(5), msecs(20), msecs(60)),
    rate: float = 35_000.0,
    measure_ns: int = msecs(240),
) -> ExchangeAblationResult:
    """A3: wire-mode estimate accuracy vs exchange cadence."""
    rows = []
    for period in periods_ns:
        config = replace(
            default_config(measure_ns=measure_ns),
            rate_per_sec=rate,
            nagle=False,
            exchange_period_ns=period,
        )
        holder: dict = {}

        def tweak(bed, holder=holder, config=config):
            holder["bed"] = bed
            estimator = E2EEstimator(bed.client_sock, exchange=bed.client_exchange)
            holder["estimates"] = []

            def tick():
                sample = estimator.sample()
                if sample is not None and sample.defined:
                    holder["estimates"].append(sample.latency_ns)
                bed.sim.call_after(msecs(20), tick)

            bed.sim.call_at(bed.sim.now + config.warmup_ns, tick)

        result = run_benchmark(config, tweak=tweak)
        estimates = holder["estimates"]
        bed = holder["bed"]
        rows.append(
            ExchangeAblationRow(
                period_ns=period,
                measured_ns=result.send_latency.mean_ns,
                estimated_ns=(sum(estimates) / len(estimates)) if estimates else None,
                states_sent=bed.client_exchange.states_sent
                + bed.server_exchange.states_sent,
                option_bytes=bed.client_exchange.option_bytes_sent
                + bed.server_exchange.option_bytes_sent,
            )
        )
    return ExchangeAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# A4 — toggling granularity and smoothing.
# ---------------------------------------------------------------------------


@dataclass
class GranularityRow:
    """One (tick, alpha) toggler configuration."""

    tick_ns: int
    alpha: float
    latency_ns: float
    toggles: int
    final_mode: bool


@dataclass
class GranularityResult:
    """The granularity/EWMA sweep at one load."""

    rate: float
    best_static_ns: float
    rows: list[GranularityRow]

    def render(self) -> str:
        """A4 as a table."""
        return format_table(
            ["tick (ms)", "alpha", "latency (us)", "toggles", "final mode"],
            [
                (
                    row.tick_ns / 1e6,
                    row.alpha,
                    to_usecs(row.latency_ns),
                    row.toggles,
                    "on" if row.final_mode else "off",
                )
                for row in self.rows
            ],
            title=(
                f"A4: toggling granularity & EWMA at {self.rate:.0f} RPS "
                f"(best static: {to_usecs(self.best_static_ns):.1f} us)"
            ),
        )


def run_granularity_ablation(
    rate: float = 50_000.0,
    ticks_ns: tuple[int, ...] = (msecs(4), msecs(16), msecs(32)),
    alphas: tuple[float, ...] = (0.1, 0.5),
    measure_ns: int = msecs(320),
) -> GranularityResult:
    """A4: how tick size and smoothing affect the toggler.

    Fine ticks react faster but measure transition-contaminated
    intervals (drain timescale ~20 ms near the knee); coarse ticks
    attribute cleanly but adapt slower — the §5 trade-off.
    """
    base = replace(default_config(measure_ns=measure_ns), rate_per_sec=rate)
    off = run_benchmark(replace(base, nagle=False))
    on = run_benchmark(replace(base, nagle=True))
    rows = []
    for tick in ticks_ns:
        for alpha in alphas:
            holder: dict = {}

            def tweak(bed, holder=holder, tick=tick, alpha=alpha):
                holder["toggler"] = attach_toggler(
                    bed, config=TogglerConfig(tick_ns=tick, alpha=alpha)
                )

            result = run_benchmark(replace(base, nagle=False), tweak=tweak)
            rows.append(
                GranularityRow(
                    tick_ns=tick,
                    alpha=alpha,
                    latency_ns=result.latency.mean_ns,
                    toggles=holder["toggler"].toggles,
                    final_mode=holder["toggler"].mode,
                )
            )
    return GranularityResult(
        rate=rate,
        best_static_ns=min(off.latency.mean_ns, on.latency.mean_ns),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A7 — batching heuristic variants.
# ---------------------------------------------------------------------------


@dataclass
class VariantRow:
    """One heuristic variant's latency at one load."""

    variant: str
    rate: float
    latency_ns: float


@dataclass
class VariantAblationResult:
    """Static heuristic variants across loads."""

    rows: list[VariantRow]

    def latency(self, variant: str, rate: float) -> float:
        """Fetch one cell."""
        for row in self.rows:
            if row.variant == variant and row.rate == rate:
                return row.latency_ns
        raise KeyError((variant, rate))

    def render(self) -> str:
        """A7 as a table (variants as columns)."""
        rates = sorted({row.rate for row in self.rows})
        variants = []
        for row in self.rows:
            if row.variant not in variants:
                variants.append(row.variant)
        table_rows = []
        for rate in rates:
            table_rows.append(
                [int(rate)] + [
                    to_usecs(self.latency(variant, rate)) for variant in variants
                ]
            )
        return format_table(
            ["rate (RPS)"] + [f"{v} (us)" for v in variants],
            table_rows,
            title="A7: batching heuristic variants — mean latency",
        )


VARIANTS = {
    "off": dict(nagle=False, autocork=False),
    "nagle": dict(nagle=True, autocork=False),
    "minshall": dict(nagle=True, nagle_mode="minshall", autocork=False),
    "autocork": dict(nagle=False, autocork=True),
}


def variant_ablation_spec(
    rates: tuple[float, ...] = (8_000.0, 50_000.0),
    measure_ns: int = msecs(120),
):
    """The A7 grid as a declarative ``repro-campaign-v1`` spec.

    Each heuristic variant is a tweak and the load axis is a sweep, so
    the expansion order (tweak-major, then rate) reproduces the
    historical cell order exactly.
    """
    from repro.campaign import CampaignSpec, SweepSpec, TweakSpec

    return CampaignSpec(
        name="variant-ablation",
        scenario="run",
        base={"measure_ns": measure_ns},
        tweaks=tuple(
            TweakSpec(name=variant, overrides=dict(overrides))
            for variant, overrides in VARIANTS.items()
        ),
        sweeps=(SweepSpec(field="rate_per_sec", values=tuple(rates)),),
        matrix=("baseline",),
        metrics=("latency_mean_ns",),
    )


def run_variant_ablation(
    rates: tuple[float, ...] = (8_000.0, 50_000.0),
    measure_ns: int = msecs(120),
    workers: int = 1,
    policy=None,
    checkpoint=None,
    watchdog=None,
) -> VariantAblationResult:
    """A7: compare the stack's static batching heuristics head-to-head.

    Expected shape: Minshall's variant avoids classic Nagle's low-load
    tail-stall (matching "off") but, for the same reason, does not
    produce the request coalescing that rescues the overloaded receive
    path — the §2 point that *every* static policy embeds assumptions
    that hold only sometimes.

    The grid runs as a declarative campaign
    (:func:`variant_ablation_spec` through
    :func:`repro.campaign.run_spec`), so ``workers > 1`` fans it over a
    process pool with results identical to serial and
    ``policy``/``checkpoint``/``watchdog`` supervise it like any other
    campaign.  Rows come back in the historical order: variant-major,
    then rate.
    """
    from repro.campaign import run_spec

    run = run_spec(
        variant_ablation_spec(rates=tuple(rates), measure_ns=measure_ns),
        workers=workers,
        policy=policy, checkpoint=checkpoint, watchdog=watchdog,
    )
    return VariantAblationResult(rows=[
        VariantRow(
            variant=cell.tweak,
            rate=cell.sweep[0][1],
            latency_ns=values["latency_mean_ns"],
        )
        for cell, values in zip(run.matrix.cells, run.values)
    ])


# ---------------------------------------------------------------------------
# A12 — loss recovery: SACK vs NewReno-style dupacks.
# ---------------------------------------------------------------------------


@dataclass
class LossRecoveryRow:
    """One (loss rate, recovery mode) cell."""

    loss: float
    sack: bool
    completion_ms: float
    retransmits: int
    sack_retransmits: int


@dataclass
class LossRecoveryResult:
    """Bulk-transfer completion under loss, by recovery mechanism."""

    transfer_bytes: int
    rows: list[LossRecoveryRow]

    def completion(self, loss: float, sack: bool) -> float:
        """Fetch one cell's completion time (ms)."""
        for row in self.rows:
            if row.loss == loss and row.sack == sack:
                return row.completion_ms
        raise KeyError((loss, sack))

    def render(self) -> str:
        """A12 as a table."""
        losses = sorted({row.loss for row in self.rows})
        table_rows = []
        for loss in losses:
            table_rows.append((
                f"{loss:.0%}",
                self.completion(loss, False),
                self.completion(loss, True),
                self.completion(loss, False) / self.completion(loss, True),
            ))
        return format_table(
            ["loss", "dupack-only (ms)", "SACK (ms)", "speedup"],
            table_rows,
            title=(
                f"A12: {self.transfer_bytes//1024} KiB bulk transfer "
                "completion under loss"
            ),
        )


def run_loss_ablation(
    losses: tuple[float, ...] = (0.02, 0.05, 0.10),
    transfer_bytes: int = 400_000,
    seed: int = 17,
) -> LossRecoveryResult:
    """A12: how much SACK buys on lossy paths.

    Not a paper experiment — it validates the TCP substrate's recovery
    machinery and quantifies the SACK extension.  Each cell replays the
    *same* loss pattern (same seed) for both recovery modes.
    """
    from repro.sim.loop import Simulator
    from repro.sim.rng import RngRegistry
    from repro.host.host import Host
    from repro.net.topology import PointToPoint
    from repro.tcp.connect import connect_pair
    from repro.tcp.socket import TcpConfig

    rows = []
    for loss in losses:
        for sack in (False, True):
            sim = Simulator()
            rng = RngRegistry(seed).stream("loss")
            client = Host(sim, "client")
            server = Host(sim, "server")
            PointToPoint.connect(
                sim, client.nic, server.nic,
                loss_probability=loss, loss_rng=rng,
            )
            tcp_config = TcpConfig(sack=sack, min_rto_ns=5_000_000)
            sock_a, sock_b = connect_pair(
                sim, client, server, tcp_config, tcp_config
            )
            sock_a.send("bulk", transfer_bytes)
            done: dict = {}

            def reader(sock_b=sock_b, done=done):
                got = 0
                while got < transfer_bytes:
                    if sock_b.readable_bytes == 0:
                        yield sock_b.wait_readable()
                    nbytes, _ = sock_b.read()
                    got += nbytes
                done["time"] = sim.now

            sim.spawn(reader())
            sim.run(until=600 * 10**9)
            rows.append(
                LossRecoveryRow(
                    loss=loss,
                    sack=sack,
                    completion_ms=done["time"] / 1e6,
                    retransmits=sock_a.retransmits,
                    sack_retransmits=sock_a.sack_retransmits,
                )
            )
    return LossRecoveryResult(transfer_bytes=transfer_bytes, rows=rows)


# ---------------------------------------------------------------------------
# A5 — AIMD batch limits.
# ---------------------------------------------------------------------------


@dataclass
class AimdAblationResult:
    """AIMD batch-floor adaptation vs static Nagle settings."""

    rate: float
    off_latency_ns: float
    on_latency_ns: float
    aimd_latency_ns: float
    final_batch_bytes: int
    history: list[tuple[int, int, float | None]]

    def render(self) -> str:
        """A5 as a table."""
        return format_table(
            ["policy", "latency (us)"],
            [
                ("static off", to_usecs(self.off_latency_ns)),
                ("static on", to_usecs(self.on_latency_ns)),
                (f"AIMD (floor={self.final_batch_bytes}B)",
                 to_usecs(self.aimd_latency_ns)),
            ],
            title=f"A5: AIMD batch floor vs static Nagle at {self.rate:.0f} RPS",
        )


def run_aimd_ablation(
    rate: float = 50_000.0,
    measure_ns: int = msecs(200),
    aimd_config: AimdConfig | None = None,
) -> AimdAblationResult:
    """A5: gradual AIMD batching vs the binary heuristics."""
    base = replace(default_config(measure_ns=measure_ns), rate_per_sec=rate)
    off = run_benchmark(replace(base, nagle=False))
    on = run_benchmark(replace(base, nagle=True))
    holder: dict = {}

    def tweak(bed, holder=holder):
        estimator = E2EEstimator(bed.client_sock, exchange=bed.client_exchange)

        def sample_fn():
            sample = estimator.sample()
            if sample is None or not sample.defined:
                return None
            return PerfSample(
                latency_ns=sample.latency_ns,
                throughput_per_sec=sample.throughput_per_sec,
            )

        def apply_fn(batch_bytes: int) -> None:
            bed.client_sock.heuristics.min_batch_bytes = batch_bytes

        limiter = AimdBatchLimiter(
            bed.sim,
            sample_fn=sample_fn,
            apply_fn=apply_fn,
            config=aimd_config
            or AimdConfig(tick_ns=msecs(2), latency_target_ns=usecs(500)),
        )
        limiter.start()
        holder["limiter"] = limiter

    aimd = run_benchmark(replace(base, nagle=False), tweak=tweak)
    limiter = holder["limiter"]
    return AimdAblationResult(
        rate=rate,
        off_latency_ns=off.latency.mean_ns,
        on_latency_ns=on.latency.mean_ns,
        aimd_latency_ns=aimd.latency.mean_ns,
        final_batch_bytes=limiter.batch_bytes,
        history=limiter.history,
    )
