"""A8 — dynamic toggling under time-varying load.

The strongest case for estimate-driven batching control: no static
Nagle setting is right when the load moves around.  The offered load
walks low → high → low; static-off collapses during the high phase,
static-on overpays during the low phases, and the ε-greedy controller
should re-toggle as each phase begins.

This is the scenario §5's exploration/exploitation discussion is really
about — the optimum *changes*, so the controller must keep probing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.analysis.report import format_table
from repro.core.toggler import TogglerConfig
from repro.experiments.ablations import attach_toggler
from repro.experiments.fig4a import default_config
from repro.loadgen.arrivals import poisson_schedule
from repro.loadgen.lancet import BenchConfig, build_testbed
from repro.loadgen.stats import summarize
from repro.units import msecs, to_usecs


@dataclass(frozen=True)
class PhasePlan:
    """The low → high → low load walk."""

    low_rate: float = 10_000.0
    high_rate: float = 50_000.0
    phase_ns: int = msecs(200)

    @property
    def phases(self) -> list[tuple[str, float]]:
        """(name, rate) per phase, in order."""
        return [
            ("low-1", self.low_rate),
            ("high", self.high_rate),
            ("low-2", self.low_rate),
        ]

    @property
    def total_ns(self) -> int:
        """Run length."""
        return len(self.phases) * self.phase_ns


@dataclass
class PolicyPhases:
    """One policy's per-phase mean latency."""

    policy: str
    phase_latency_ns: dict[str, float]
    toggles: int | None = None
    mode_timeline: list[tuple[int, bool]] | None = None


@dataclass
class TimeVaryingResult:
    """All policies across the load walk."""

    plan: PhasePlan
    policies: list[PolicyPhases]

    def policy(self, name: str) -> PolicyPhases:
        """Fetch one policy's row."""
        for entry in self.policies:
            if entry.policy == name:
                return entry
        raise KeyError(name)

    def render(self) -> str:
        """A8 as a table."""
        phase_names = [name for name, _ in self.plan.phases]
        rows = []
        for entry in self.policies:
            rows.append(
                [entry.policy]
                + [to_usecs(entry.phase_latency_ns[name]) for name in phase_names]
                + [entry.toggles if entry.toggles is not None else "-"]
            )
        return format_table(
            ["policy"] + [f"{name} (us)" for name in phase_names] + ["toggles"],
            rows,
            title=(
                f"A8: load walk {self.plan.low_rate/1000:.0f}k -> "
                f"{self.plan.high_rate/1000:.0f}k -> "
                f"{self.plan.low_rate/1000:.0f}k RPS, "
                f"{self.plan.phase_ns/1e6:.0f} ms phases"
            ),
        )


def _composite_schedule(rng, workload, plan: PhasePlan, start_ns: int):
    parts = []
    offset = start_ns
    for _, rate in plan.phases:
        parts.append(
            poisson_schedule(rng, workload, rate, start_ns=offset,
                             duration_ns=plan.phase_ns)
        )
        offset += plan.phase_ns
    return itertools.chain(*parts)


def _run_policy(
    policy: str, plan: PhasePlan, base: BenchConfig
) -> PolicyPhases:
    config = replace(
        base,
        rate_per_sec=plan.high_rate,  # only used for validation
        nagle=(policy == "static-on"),
        warmup_ns=0,
        measure_ns=plan.total_ns,
    )
    bed = build_testbed(config)
    toggler = None
    if policy == "dynamic":
        toggler = attach_toggler(
            bed,
            config=TogglerConfig(tick_ns=msecs(16), settle_ticks=1,
                                 min_samples=2, epsilon=0.1),
        )

    workload = config.workload
    for index in range(workload.keyspace):
        bed.server.store.set(workload.make_key(index), workload.value_bytes)
    bed.server.start()
    start = bed.sim.now
    bed.client.start(
        _composite_schedule(bed.rng.stream("arrivals.0"), workload, plan, start)
    )
    bed.sim.run(until=start + plan.total_ns)

    phase_latency = {}
    for index, (name, _) in enumerate(plan.phases):
        lo = start + index * plan.phase_ns
        hi = lo + plan.phase_ns
        samples = [
            r.latency_ns for r in bed.client.records if lo <= r.completed_at < hi
        ]
        phase_latency[name] = summarize(samples).mean_ns
    return PolicyPhases(
        policy=policy,
        phase_latency_ns=phase_latency,
        toggles=toggler.toggles if toggler is not None else None,
        mode_timeline=(
            [(record.time, record.mode) for record in toggler.history]
            if toggler is not None
            else None
        ),
    )


def run_timevarying(
    plan: PhasePlan | None = None,
    base: BenchConfig | None = None,
) -> TimeVaryingResult:
    """Run static-off, static-on, and the dynamic toggler over the walk."""
    plan = plan or PhasePlan()
    base = base or default_config()
    policies = [
        _run_policy(policy, plan, base)
        for policy in ("static-off", "static-on", "dynamic")
    ]
    return TimeVaryingResult(plan=plan, policies=policies)
