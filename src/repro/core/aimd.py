"""AIMD batch-limit adaptation (paper §5, "Better Batching Heuristics").

Instead of toggling an ad-hoc heuristic on and off, adjust a *batching
limit* gradually — the control shape TCP congestion control uses to
adapt to changing conditions [Chiu & Jain], applied to the batching
budget:

- while end-to-end latency violates the objective, batching relieves the
  overheads that caused the violation: **additively increase** the batch
  floor (hold partial segments until more bytes accumulate, amortizing
  per-delivery costs);
- while latency is comfortably under the objective, batching only adds
  delay: **multiplicatively decay** the floor back toward immediate
  transmission.

The result is the classic AIMD sawtooth around the smallest batching
budget that keeps the system under its latency target — batch as little
as possible, but as much as necessary.

The controlled knob is ``min_batch_bytes`` on
:class:`~repro.tcp.nagle.BatchingHeuristics`: a partial segment is held
until at least that many bytes are queued (0 disables holding beyond
Nagle/auto-corking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.ewma import Ewma
from repro.core.policy import PerfSample
from repro.errors import EstimationError
from repro.units import msecs


@dataclass(frozen=True)
class AimdConfig:
    """AIMD controller tunables.

    ``latency_target_ns`` is the objective (e.g. the 500 µs SLO, or a
    tighter internal target).  ``increase_bytes`` is the additive step
    applied per tick while the target is violated; ``decrease_factor``
    the multiplicative decay applied while comfortably under it.
    ``comfort_fraction`` defines "comfortably": decay only below
    ``comfort_fraction * latency_target_ns``, leaving a hysteresis band
    that damps oscillation around the target.
    """

    tick_ns: int = msecs(2)
    latency_target_ns: int = 500_000
    increase_bytes: int = 512
    decrease_factor: float = 0.7
    comfort_fraction: float = 0.5
    max_batch_bytes: int = 64 * 1024
    alpha: float = 0.3

    def validate(self) -> None:
        """Raise on out-of-range parameters."""
        if self.tick_ns <= 0:
            raise EstimationError(f"tick must be positive: {self.tick_ns}")
        if self.latency_target_ns <= 0:
            raise EstimationError("latency target must be positive")
        if self.increase_bytes <= 0:
            raise EstimationError("additive increase must be positive")
        if not 0.0 < self.decrease_factor < 1.0:
            raise EstimationError(
                f"decrease factor must be in (0,1): {self.decrease_factor}"
            )
        if not 0.0 < self.comfort_fraction <= 1.0:
            raise EstimationError(
                f"comfort fraction must be in (0,1]: {self.comfort_fraction}"
            )


class AimdBatchLimiter:
    """Gradually adapts a byte batching floor to a latency target."""

    def __init__(
        self,
        sim,
        sample_fn: Callable[[], PerfSample | None],
        apply_fn: Callable[[int], None],
        config: AimdConfig | None = None,
    ):
        self._sim = sim
        self._sample_fn = sample_fn
        self._apply_fn = apply_fn
        self.config = config or AimdConfig()
        self.config.validate()
        self.batch_bytes = 0
        self._latency = Ewma(self.config.alpha)
        self.history: list[tuple[int, int, float | None]] = []
        self._timer = None

    def start(self) -> None:
        """Apply the zero floor and begin ticking."""
        self._apply_fn(self.batch_bytes)
        self._timer = self._sim.call_after(self.config.tick_ns, self._tick)

    def stop(self) -> None:
        """Cancel the tick timer."""
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None

    def _tick(self) -> None:
        sample = self._sample_fn()
        if sample is not None and sample.latency_ns is not None:
            self._latency.update(sample.latency_ns)
            self._adjust()
        self.history.append(
            (self._sim.now, self.batch_bytes, self._latency.mean)
        )
        self._timer = self._sim.call_after(self.config.tick_ns, self._tick)

    def _adjust(self) -> None:
        latency = self._latency.mean
        if latency is None:
            return
        if latency > self.config.latency_target_ns:
            # Under pressure: batch more to amortize overheads.
            self.batch_bytes = min(
                self.config.max_batch_bytes,
                self.batch_bytes + self.config.increase_bytes,
            )
        elif latency < self.config.comfort_fraction * self.config.latency_target_ns:
            # Comfortable: decay toward immediate transmission.
            self.batch_bytes = int(self.batch_bytes * self.config.decrease_factor)
        self._apply_fn(self.batch_bytes)
