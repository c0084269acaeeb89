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

from repro.sim.events import Event
from repro.sim.loop import Simulator
from repro.sim.process import Process, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
]
