"""Discrete-event simulation engine.

A small, deterministic, generator-based discrete-event kernel in the style
of SimPy, written from scratch for this reproduction.  The pieces:

- :class:`~repro.sim.loop.Simulator` — the event loop: a priority queue of
  timestamped callbacks with a monotonically advancing integer-nanosecond
  clock.
- :class:`~repro.sim.events.Event` — one-shot triggerable events processes
  can wait on.
- :class:`~repro.sim.process.Process` — cooperative processes written as
  Python generators that ``yield`` timeouts, events, other processes, or
  store operations.
- :mod:`~repro.sim.resources` — FIFO stores and counted resources.
- :mod:`~repro.sim.rng` — named, seeded random streams for reproducibility.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Event": ".events",
    "Simulator": ".loop",
    "Process": ".process",
    "Timeout": ".process",
    "Resource": ".resources",
    "Store": ".resources",
    "RngRegistry": ".rng",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
