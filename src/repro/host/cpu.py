"""A CPU core as a serial work executor with utilization accounting.

Work items are ``(cost_ns, fn, arg)`` triples executed strictly FIFO,
completing with ``fn(arg)`` (no closure per item); the core is busy for
exactly the sum of the costs it runs.  Utilization over a window — busy
time divided by elapsed time — is what Figure 2a/2b report.

Two submission styles:

- :meth:`execute` — callback style, usable from any context (timers,
  softirq handlers).
- :meth:`submit` — returns a waitable for generator processes:
  ``yield core.submit(cost)`` charges the cost and resumes when done.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.errors import SimulationError


class CpuCore:
    """Serial FIFO executor with busy-time accounting."""

    __slots__ = (
        "_sim",
        "name",
        "_queue",
        "_fn",
        "_arg",
        "busy_ns",
        "work_items",
        "_window_start",
        "_window_busy_base",
    )

    def __init__(self, sim, name: str = "core"):
        self._sim = sim
        self.name = name
        self._queue: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        # The item in progress (None while idle).
        self._fn: Callable[[Any], None] | None = None
        self._arg: Any = None
        self.busy_ns = 0
        self.work_items = 0
        self._window_start = sim.now
        self._window_busy_base = 0

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    def execute(self, cost_ns: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` after the core has spent ``cost_ns`` on it,
        behind any previously queued work."""
        if cost_ns < 0:
            raise SimulationError(f"negative CPU cost {cost_ns}")
        if self._fn is not None:
            self._queue.append((cost_ns, fn, arg))
            return
        # Busy time is charged when an item starts.
        self.busy_ns += cost_ns
        self.work_items += 1
        self._fn = fn
        self._arg = arg
        self._sim.call_after(cost_ns, self._finish_current)

    def submit(self, cost_ns: int) -> "_CpuWork":
        """Waitable variant of :meth:`execute` for processes."""
        return _CpuWork(self, cost_ns)

    def _finish_current(self) -> None:
        # The item stays current while it runs, so work it submits to
        # this core queues behind anything already waiting.
        self._fn(self._arg)
        if self._queue:
            cost_ns, self._fn, self._arg = self._queue.popleft()
            self.busy_ns += cost_ns
            self.work_items += 1
            self._sim.call_after(cost_ns, self._finish_current)
        else:
            self._fn = self._arg = None

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Work items waiting behind the current one."""
        return len(self._queue)

    def reset_window(self) -> None:
        """Start a fresh utilization measurement window at *now*."""
        self._window_start = self._sim.now
        self._window_busy_base = self.busy_ns

    def utilization(self) -> float:
        """Busy fraction since the last :meth:`reset_window` (or creation).

        Note: busy time is attributed when work *starts*, so a window cut
        mid-item attributes the whole item to the window in which it
        began; with the millisecond-scale windows used by experiments the
        bias is negligible.
        """
        elapsed = self._sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.busy_ns - self._window_busy_base) / elapsed)


class _CpuWork:
    """Waitable wrapper around :meth:`CpuCore.execute`."""

    __slots__ = ("_core", "_cost")

    def __init__(self, core: CpuCore, cost_ns: int):
        self._core = core
        self._cost = cost_ns

    def _subscribe(self, resume: Callable[[Any], None]) -> None:
        self._core.execute(self._cost, resume, None)
