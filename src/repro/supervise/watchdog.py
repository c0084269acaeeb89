"""In-simulation watchdog budgets: fail fast on runaway configurations.

A discrete-event run is bounded in *simulated* time by construction
(``sim.run(until=...)``), but not in *work*: a config near a stability
edge can generate events far faster than the clock advances (retransmit
storms, zero-delay feedback loops), turning one campaign job into an
unbounded wall-clock sink.  A :class:`Watchdog` attached to
:func:`~repro.loadgen.lancet.run_benchmark` bounds both axes:

- ``max_events`` caps executed simulator callbacks (enforced by
  :meth:`repro.sim.loop.Simulator.set_event_budget`);
- ``max_sim_time_ns`` caps the run's total simulated horizon
  (warmup + measurement), rejected before the testbed is even built.

Both violations raise :class:`~repro.errors.WatchdogError` — a *typed*
error, so a campaign supervisor can quarantine the config as poison
instead of retrying work that will fail identically every time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SuperviseError


@dataclass(frozen=True)
class Watchdog:
    """Per-run budgets; ``None`` disables the corresponding check."""

    max_events: int | None = None
    max_sim_time_ns: int | None = None

    def validate(self) -> None:
        """Raise on nonsensical budgets."""
        if self.max_events is not None and self.max_events <= 0:
            raise SuperviseError(
                f"watchdog max_events must be positive, got {self.max_events}"
            )
        if self.max_sim_time_ns is not None and self.max_sim_time_ns <= 0:
            raise SuperviseError(
                f"watchdog max_sim_time_ns must be positive, "
                f"got {self.max_sim_time_ns}"
            )
