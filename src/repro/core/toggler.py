"""Dynamic on/off batching controlled by end-to-end estimates (paper §5).

The effect of toggling Nagle is unknown until tried — a classic
exploration/exploitation problem.  As the paper speculates, a light
ε-greedy scheme suffices: every tick (the *toggling granularity*, §5) the
controller

1. samples end-to-end performance for the mode that just ran,
2. folds it into that mode's EWMA,
3. picks the next mode: with probability ε the other one (exploration),
   otherwise the mode whose smoothed performance the policy prefers,

and applies the choice to the sockets under control.  Ticks whose
estimate is undefined (idle connection) leave the EWMAs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.ewma import Ewma
from repro.core.policy import BatchingPolicy, PerfSample
from repro.errors import EstimationError
from repro.units import msecs


@dataclass(frozen=True)
class TogglerConfig:
    """ε-greedy toggler tunables.

    ``tick_ns`` is the toggling granularity (the paper's initial results
    suggest a kernel tick, ~1–4 ms).  ``epsilon`` is the exploration
    probability.  ``alpha`` is the per-mode EWMA weight.
    ``min_samples`` forces each mode to be tried that many times before
    greedy selection starts.  ``settle_ticks`` discards that many
    intervals after every mode change before attributing samples: the
    queues built under the old mode must drain, or the new mode gets
    blamed for the old one's backlog (most visible when exploring the
    good mode while the bad one is collapsing).

    Robustness knobs (both default to the legacy behavior):
    ``freeze_ticks`` is the minimum dwell — at least that many ticks
    between consecutive mode changes, bounding how fast the controller
    can oscillate when its estimates turn noisy.  ``loss_freeze_ticks``
    is how long a detected loss episode (see ``loss_signal_fn`` on the
    toggler) holds the controller: mode frozen, EWMAs untouched, so
    retransmission stalls are never attributed to the running mode.
    """

    tick_ns: int = msecs(1)
    epsilon: float = 0.1
    alpha: float = 0.3
    min_samples: int = 3
    settle_ticks: int = 3
    freeze_ticks: int = 0
    loss_freeze_ticks: int = 4

    def validate(self) -> None:
        """Raise on out-of-range parameters."""
        if self.tick_ns <= 0:
            raise EstimationError(f"tick must be positive, got {self.tick_ns}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise EstimationError(f"epsilon out of range: {self.epsilon}")
        if self.min_samples < 1:
            raise EstimationError(f"min_samples must be >= 1: {self.min_samples}")
        if self.settle_ticks < 0:
            raise EstimationError(f"settle_ticks must be >= 0: {self.settle_ticks}")
        if self.freeze_ticks < 0:
            raise EstimationError(f"freeze_ticks must be >= 0: {self.freeze_ticks}")
        if self.loss_freeze_ticks < 0:
            raise EstimationError(
                f"loss_freeze_ticks must be >= 0: {self.loss_freeze_ticks}"
            )


@dataclass
class ToggleRecord:
    """Telemetry: one controller tick."""

    time: int
    mode: bool
    sample: PerfSample | None
    explored: bool


@dataclass
class _ModeStats:
    latency: Ewma
    throughput: Ewma
    samples: int = 0


class NagleToggler:
    """ε-greedy dynamic Nagle on/off controller.

    ``sample_fn`` returns the latest :class:`PerfSample` (or None) —
    typically a closure over an :class:`~repro.core.estimator
    .E2EEstimator` or a :class:`~repro.core.hints.RemoteHintEstimator`.
    ``apply_fn`` receives the chosen mode (True = Nagle on) and flips it
    on every connection the policy governs; per §3.2, a policy spanning
    multiple connections averages their estimates inside ``sample_fn``.

    ``loss_signal_fn``, when given, is polled every tick and returns
    True while the network is visibly losing segments (e.g. a closure
    diffing the sockets' retransmit counters).  A True reading opens a
    loss episode: for ``config.loss_freeze_ticks`` ticks the controller
    holds its mode and leaves both EWMAs at their last-known-good
    values — samples taken during recovery measure the loss, not the
    batching mode, and folding them in would make the controller flap
    between two arms it is mis-scoring.

    ``tracer`` (a :class:`repro.obs.Tracer`) records every tick as a
    ``toggler.decision`` trace record — the sample observed, the phase
    (measure/settle/loss-freeze/freeze-hold) and both arms' EWMAs — so a
    choice can be audited after the fact; ``name`` is the record's
    ``src`` field.
    """

    def __init__(
        self,
        sim,
        sample_fn: Callable[[], PerfSample | None],
        apply_fn: Callable[[bool], None],
        policy: BatchingPolicy,
        rng,
        config: TogglerConfig | None = None,
        initial_mode: bool = False,
        loss_signal_fn: Callable[[], bool] | None = None,
        tracer=None,
        name: str = "toggler",
    ):
        from repro.obs.tracer import NULL_TRACER

        self._sim = sim
        self._sample_fn = sample_fn
        self._apply_fn = apply_fn
        self._policy = policy
        self._rng = rng
        self._loss_signal_fn = loss_signal_fn
        self.config = config or TogglerConfig()
        self.config.validate()
        self.mode = initial_mode
        self._stats = {
            mode: _ModeStats(
                latency=Ewma(self.config.alpha),
                throughput=Ewma(self.config.alpha),
            )
            for mode in (False, True)
        }
        self.history: list[ToggleRecord] = []
        self.toggles = 0
        self._timer = None
        self._settling = 0
        self._loss_freeze = 0
        self._ticks_since_toggle = self.config.freeze_ticks
        self.loss_episodes = 0
        self.frozen_ticks = 0
        self.freeze_holds = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_src = name
        self._tick_index = 0

    def start(self) -> None:
        """Apply the initial mode and begin ticking."""
        self._apply_fn(self.mode)
        self._timer = self._sim.call_after(self.config.tick_ns, self._tick)

    def stop(self) -> None:
        """Cancel the tick timer."""
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None

    # ------------------------------------------------------------------
    # Controller loop.
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_index += 1
        prev_mode = self.mode
        sample = self._sample_fn()
        explored, phase = self._observe_and_choose(sample)
        self.history.append(
            ToggleRecord(self._sim.now, self.mode, sample, explored)
        )
        if self._tracer.enabled:
            self._tracer.toggler_decision(
                self._trace_src,
                tick=self._tick_index,
                mode=self.mode,
                prev_mode=prev_mode,
                explored=explored,
                phase=phase,
                sample_latency_ns=(
                    sample.latency_ns if sample is not None else None
                ),
                ewma=self._ewma_dict(),
            )
        self._timer = self._sim.call_after(self.config.tick_ns, self._tick)

    def _ewma_dict(self) -> dict:
        """Both arms' smoothed views, for the decision trace record."""
        out = {}
        for mode, key in ((False, "nagle_off"), (True, "nagle_on")):
            stats = self._stats[mode]
            out[key] = {
                "latency_ns": stats.latency.mean,
                "throughput_per_sec": stats.throughput.mean,
                "samples": stats.samples,
            }
        return out

    def _observe_and_choose(
        self, sample: PerfSample | None
    ) -> tuple[bool, str]:
        """One tick of the controller.

        Returns ``(explored, phase)``: whether exploration picked the
        next mode, and which phase the tick landed in — ``"loss-freeze"``
        (holding through a loss episode), ``"settle"`` (discarding
        post-toggle drain intervals), ``"freeze-hold"`` (a wanted change
        suppressed by the minimum dwell), or ``"measure"`` (a normal
        sample-and-select tick).
        """
        self._ticks_since_toggle += 1
        if self._loss_signal_fn is not None and self._loss_signal_fn():
            if self._loss_freeze == 0:
                self.loss_episodes += 1
            self._loss_freeze = self.config.loss_freeze_ticks
        if self._loss_freeze > 0:
            # Loss episode: the sample measures retransmission stalls,
            # not the batching mode.  Hold the mode and keep the
            # last-known-good EWMAs untouched until the episode clears.
            self._loss_freeze -= 1
            self.frozen_ticks += 1
            return False, "loss-freeze"
        if self._settling > 0:
            # The intervals right after a mode change straddle the
            # transition — queues built under the old mode drain under
            # the new one, so attributing them would poison this arm's
            # EWMA.  Discard them and measure clean intervals first.
            self._settling -= 1
            return False, "settle"
        if sample is not None and sample.latency_ns is not None:
            stats = self._stats[self.mode]
            stats.samples += 1
            stats.latency.update(sample.latency_ns)
            stats.throughput.update(sample.throughput_per_sec)
        next_mode, explored = self._select()
        if next_mode != self.mode:
            if self._ticks_since_toggle < self.config.freeze_ticks:
                # Inside the freeze window: the last change is too
                # recent for another to be evidence rather than noise.
                self.freeze_holds += 1
                return explored, "freeze-hold"
            self.mode = next_mode
            self.toggles += 1
            self._settling = self.config.settle_ticks
            self._ticks_since_toggle = 0
            self._apply_fn(next_mode)
        return explored, "measure"

    def _select(self) -> tuple[bool, bool]:
        # Make sure both arms have a minimal history first.
        for mode in (False, True):
            if self._stats[mode].samples < self.config.min_samples:
                return mode, True
        if self._rng.bernoulli(self.config.epsilon):
            return (not self.mode), True
        return self._greedy(), False

    def _greedy(self) -> bool:
        scores = {}
        for mode, stats in self._stats.items():
            scores[mode] = self._policy.score(
                PerfSample(
                    latency_ns=stats.latency.mean,
                    throughput_per_sec=stats.throughput.mean or 0.0,
                )
            )
        return scores[True] > scores[False]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def smoothed(self, mode: bool) -> PerfSample:
        """Current EWMA view of one mode."""
        stats = self._stats[mode]
        return PerfSample(
            latency_ns=stats.latency.mean,
            throughput_per_sec=stats.throughput.mean or 0.0,
        )
