"""A frozen event kernel: the perf gate's machine-speed reference.

This is the seed's kernel, verbatim in shape: one ``_LegacyScheduled``
object per event, Python ``__lt__`` heap comparisons.  It never
changes, so its chained-timer rate measures the machine and the
interpreter, not the code under test.  ``benchmarks/test_bench_perf.py``
races ``repro.sim.loop.Simulator`` against it, and
``benchmarks/e2e_shapes.py`` times it around every shape run to turn
wall seconds into kernel-normalized seconds.

Timing ``Simulator`` itself for that made the normalizer move with the
kernel under test: a faster kernel inflated every normalized number.
The committed references were set in units of ``Simulator``'s chained
rate, so the gate multiplies this kernel's rate by one committed factor
``k`` (``perf_baseline.json``: ``conversion.kernel_factor``).  To
measure ``k`` for a tree, from the repository root::

    PYTHONPATH=<tree>/src python -m benchmarks.frozen_kernel [pairs]

It prints the median, over interleaved pairs, of that tree's
``Simulator`` best-of-3 chained rate over this kernel's.
"""

from __future__ import annotations

import heapq
import json
import statistics
import sys
import time
from typing import Callable

#: Events per chained run.
CHAINED_EVENTS = 100_000


class _LegacyScheduled:
    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "_LegacyScheduled") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class LegacySimulator:
    """The seed kernel: ``call_at``/``call_after``/``cancel``/``run``."""

    def __init__(self):
        self._now = 0
        self._heap: list[_LegacyScheduled] = []
        self._seq = 0

    def call_at(self, time: int, callback: Callable[[], None]):
        entry = _LegacyScheduled(time, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def call_after(self, delay: int, callback: Callable[[], None]):
        return self.call_at(self._now + delay, callback)

    def cancel(self, entry: _LegacyScheduled) -> None:
        entry.cancelled = True

    def run(self, until: int | None = None) -> None:
        while self._heap:
            entry = self._heap[0]
            if entry.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and entry.time > until:
                break
            heapq.heappop(self._heap)
            self._now = entry.time
            entry.callback()
        if until is not None and self._now < until:
            self._now = until


def chained_rate(sim_cls, n: int = CHAINED_EVENTS) -> float:
    """Events/s of one live timer chained ``n`` times on ``sim_cls``:
    the pure schedule/run cycle."""
    sim = sim_cls()
    state = {"count": 0}

    def tick():
        state["count"] += 1
        if state["count"] < n:
            sim.call_after(10, tick)

    sim.call_after(10, tick)
    start = time.perf_counter()
    sim.run()
    assert state["count"] == n
    return n / (time.perf_counter() - start)


def best_chained_rate(sim_cls, reps: int = 3) -> float:
    """The fastest of ``reps`` chained runs, in events/s."""
    return max(chained_rate(sim_cls) for _ in range(reps))


def kernel_factor(sim_cls, pairs: int = 10) -> dict:
    """``sim_cls``'s chained rate over this kernel's: the median and
    spread of ``pairs`` interleaved best-of-3 readings, the order
    flipping every pair."""
    ratios = []
    for index in range(pairs):
        if index % 2:
            frozen = best_chained_rate(LegacySimulator)
            live = best_chained_rate(sim_cls)
        else:
            live = best_chained_rate(sim_cls)
            frozen = best_chained_rate(LegacySimulator)
        ratios.append(live / frozen)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "k": round(statistics.median(ratios), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "min": round(min(ratios), 4),
        "max": round(max(ratios), 4),
        "pairs": pairs,
    }


if __name__ == "__main__":
    from repro.sim.loop import Simulator

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(json.dumps(kernel_factor(Simulator, count)))
