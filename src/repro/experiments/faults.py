"""Chaos experiment: estimator and toggler robustness under faults.

The paper's testbed is a clean two-machine wire; a deployment's network
is not.  :func:`run_faults` sweeps a fault plan's intensity from zero
(exactly the fault-free configuration — the injector is not even built)
upward, and reports how gracefully the end-to-end machinery degrades:

- **estimator error** — wire-mode estimate vs measured latency, plus the
  hardening counters (rejected exchanges, stale windows, clamps).  The
  headline robustness claim is that the estimator never *emits* a
  negative latency, however mangled its inputs.
- **toggler stability** — mode changes, their minimum spacing in ticks
  (which must respect the configured freeze window), and how many loss
  episodes froze the controller on its last-known-good EWMAs.

Every point is deterministic in (seed, plan, intensity); the JSON
artifact (see :meth:`ChaosResult.write_json`) is the machine-readable
robustness report CI archives next to perf.json.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from repro.analysis.report import format_table
from repro.core.estimator import E2EEstimator
from repro.core.toggler import NagleToggler, TogglerConfig
from repro.errors import WorkloadError
from repro.experiments.ablations import hedged_sample, start_toggler
from repro.experiments.fig4a import default_config
from repro.faults import named_plan
from repro.loadgen.lancet import run_benchmark
from repro.units import SEC, msecs, to_usecs

#: Intensity factors the sweep uses unless told otherwise.  Zero is the
#: fault-free baseline and runs with ``fault_plan=None`` exactly.  The
#: ladder is deliberately front-loaded: under an open-loop arrival
#: process any fault that cuts capacity below the offered rate explodes
#: the queue, so the interesting degradation lives at low intensities.
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: Hardened controller settings for chaos runs: a real freeze window and
#: a loss-episode hold, unlike the legacy-compatible defaults.
CHAOS_TOGGLER = TogglerConfig(
    tick_ns=msecs(4),
    settle_ticks=1,
    min_samples=2,
    freeze_ticks=4,
    loss_freeze_ticks=4,
)


@dataclass
class ChaosPoint:
    """One intensity's robustness metrics."""

    intensity: float
    offered_rate: float
    achieved_rate: float
    measured_ns: float
    estimated_ns: float | None
    estimate_samples: int
    negative_estimates: int        # estimates emitted below zero: must be 0
    negative_clamps: int
    absurd_clamps: int
    stale_rejections: int
    nonmonotonic_rejections: int
    states_rejected: int
    rebaselines: int
    toggles: int
    min_toggle_gap_ticks: int | None
    loss_episodes: int
    frozen_ticks: int
    freeze_holds: int
    fault_summary: dict | None
    #: Labeled ground-truth episodes the injector inflicted (class,
    #: target, interval, event count) — what ``repro diagnose --score``
    #: matches detection findings against.  Empty for fault-free points.
    fault_episodes: list | None = None

    @property
    def error_fraction(self) -> float | None:
        """|estimate − measured| / measured."""
        if self.estimated_ns is None or self.measured_ns <= 0:
            return None
        return abs(self.estimated_ns - self.measured_ns) / self.measured_ns


@dataclass
class ChaosResult:
    """The full intensity sweep for one plan."""

    plan: str
    rate: float
    seed: int
    freeze_ticks: int
    points: list[ChaosPoint]

    def render(self) -> str:
        """The sweep as a table."""
        return format_table(
            ["intensity", "achieved", "measured (us)", "estimate (us)",
             "error", "neg est", "rejected", "rebase", "toggles",
             "min gap", "loss eps"],
            [
                (
                    point.intensity,
                    int(point.achieved_rate),
                    to_usecs(point.measured_ns),
                    to_usecs(point.estimated_ns)
                    if point.estimated_ns is not None else float("nan"),
                    f"{point.error_fraction:.1%}"
                    if point.error_fraction is not None else "-",
                    point.negative_estimates,
                    point.states_rejected,
                    point.rebaselines,
                    point.toggles,
                    point.min_toggle_gap_ticks
                    if point.min_toggle_gap_ticks is not None else "-",
                    point.loss_episodes,
                )
                for point in self.points
            ],
            title=(
                f"Chaos sweep: plan {self.plan!r} at {self.rate:.0f} RPS "
                f"(freeze window {self.freeze_ticks} ticks)"
            ),
        )

    def to_json(self) -> dict:
        """Machine-readable robustness metrics."""
        return {
            "schema": "repro-robustness-v1",
            "plan": self.plan,
            "rate": self.rate,
            "seed": self.seed,
            "freeze_ticks": self.freeze_ticks,
            "points": [
                {**asdict(point), "error_fraction": point.error_fraction}
                for point in self.points
            ],
        }

    def write_json(self, path) -> None:
        """Write :meth:`to_json` to ``path`` (parents created)."""
        import pathlib

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json(), indent=2) + "\n")


def attach_chaos_controller(bed, config: TogglerConfig | None = None) -> dict:
    """Wire the hardened estimator+toggler stack onto a testbed.

    Built like :func:`repro.experiments.ablations.attach_toggler`, but
    with the degradation features enabled: both wire-mode estimators run
    with a staleness budget and an absurdity ceiling, and the controller
    gets a freeze window plus a loss signal that diffs the sockets'
    retransmit counters each tick.

    Returns a holder dict with the toggler and both estimators; each
    tick's estimate is in the toggler's ``history``.
    """
    config = config or CHAOS_TOGGLER
    staleness = 8 * bed.config.exchange_period_ns
    tracer = getattr(bed, "tracer", None)
    client_estimator = E2EEstimator(
        bed.client_sock, exchange=bed.client_exchange,
        max_staleness_ns=staleness, max_latency_ns=SEC, tracer=tracer,
    )
    server_estimator = E2EEstimator(
        bed.server_sock, exchange=bed.server_exchange,
        max_staleness_ns=staleness, max_latency_ns=SEC, tracer=tracer,
    )
    last_retransmits = [0]

    def loss_signal_fn() -> bool:
        total = bed.client_sock.retransmits + bed.server_sock.retransmits
        seen, last_retransmits[0] = last_retransmits[0], total
        return total > seen

    toggler = start_toggler(
        bed, (bed.client_sock, bed.server_sock),
        lambda: hedged_sample(client_estimator, server_estimator),
        config, loss_signal_fn=loss_signal_fn,
    )
    return {
        "toggler": toggler,
        "client_estimator": client_estimator,
        "server_estimator": server_estimator,
    }


def min_toggle_gap_ticks(toggler: NagleToggler) -> int | None:
    """Smallest tick spacing between consecutive mode changes.

    None with fewer than two mode changes (no spacing exists).  The
    freeze-window guarantee is that this never drops below
    ``config.freeze_ticks``.
    """
    change_ticks = []
    previous = None
    for index, record in enumerate(toggler.history):
        if previous is not None and record.mode != previous:
            change_ticks.append(index)
        previous = record.mode
    if len(change_ticks) < 2:
        return None
    return min(b - a for a, b in zip(change_ticks, change_ticks[1:]))


def run_faults(
    plan_name: str = "mixed",
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    rate: float = 15_000.0,
    measure_ns: int = msecs(300),
    seed: int = 1,
    toggler_config: TogglerConfig | None = None,
    log=None,
    tracer=None,
) -> ChaosResult:
    """Sweep one fault plan's intensity; report robustness metrics.

    ``intensities`` are multipliers on the named plan's knobs; 0 runs
    the exact fault-free configuration (``fault_plan=None``, no injector
    built), so the first row doubles as the regression baseline.  A
    negative (or NaN) intensity raises
    :class:`~repro.errors.WorkloadError` before the first run.

    ``log`` is a :class:`repro.obs.ProgressLog` for per-intensity
    progress (default: silent); ``tracer`` records every point's run
    into one ``repro-trace-v1`` stream.
    """
    from repro.obs.log import NULL_LOG

    for intensity in intensities:
        if not intensity >= 0:
            raise WorkloadError(
                f"intensity factor must be >= 0: {intensity}"
            )
    if log is None:
        log = NULL_LOG
    preset = named_plan(plan_name)
    config = toggler_config or CHAOS_TOGGLER
    # A 5 ms RTO floor (the loss ablation's choice) instead of the
    # Linux-like 200 ms default: a bursty-loss episode that eats a fast
    # retransmit must cost milliseconds, not the whole run.
    base = replace(
        default_config(measure_ns=measure_ns),
        rate_per_sec=rate,
        seed=seed,
        min_rto_ns=msecs(5),
    )
    points: list[ChaosPoint] = []
    for index, intensity in enumerate(intensities):
        log.info(
            f"chaos {plan_name}: intensity {intensity:g} "
            f"({index + 1}/{len(intensities)})"
        )
        plan = preset.scaled(intensity) if intensity > 0 else None
        bench = replace(base, fault_plan=plan)
        holder: dict = {}

        def tweak(bed, holder=holder, config=config):
            holder["bed"] = bed
            holder.update(attach_chaos_controller(bed, config=config))

        result = run_benchmark(bench, tweak=tweak, tracer=tracer)
        bed = holder["bed"]
        toggler = holder["toggler"]
        estimates = [record.sample.latency_ns for record in toggler.history
                     if record.sample is not None]
        estimators = (holder["client_estimator"], holder["server_estimator"])
        exchanges = (bed.client_exchange, bed.server_exchange)
        points.append(
            ChaosPoint(
                intensity=intensity,
                offered_rate=rate,
                achieved_rate=result.achieved_rate,
                measured_ns=result.latency.mean_ns,
                estimated_ns=(
                    sum(estimates) / len(estimates) if estimates else None
                ),
                estimate_samples=len(estimates),
                negative_estimates=sum(1 for value in estimates if value < 0),
                negative_clamps=sum(e.negative_clamps for e in estimators),
                absurd_clamps=sum(e.absurd_clamps for e in estimators),
                stale_rejections=sum(e.stale_rejections for e in estimators),
                nonmonotonic_rejections=sum(
                    e.nonmonotonic_rejections for e in estimators
                ),
                states_rejected=sum(x.states_rejected for x in exchanges),
                rebaselines=sum(x.rebaselines for x in exchanges),
                toggles=toggler.toggles,
                min_toggle_gap_ticks=min_toggle_gap_ticks(toggler),
                loss_episodes=toggler.loss_episodes,
                frozen_ticks=toggler.frozen_ticks,
                freeze_holds=toggler.freeze_holds,
                fault_summary=(
                    bed.faults.summary() if bed.faults is not None else None
                ),
                fault_episodes=(
                    bed.faults.episodes() if bed.faults is not None else []
                ),
            )
        )
        point = points[-1]
        log.info(
            f"  achieved {point.achieved_rate:,.0f} RPS, "
            f"{point.toggles} toggles, "
            f"{point.states_rejected} states rejected, "
            f"{point.loss_episodes} loss episodes"
        )
    return ChaosResult(
        plan=plan_name,
        rate=rate,
        seed=seed,
        freeze_ticks=config.freeze_ticks,
        points=points,
    )
