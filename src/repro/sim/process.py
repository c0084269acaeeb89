"""Generator-based cooperative processes.

A simulation process is a Python generator.  It advances by ``yield``-ing
*waitables*:

- ``Timeout(delay)`` — resume after ``delay`` nanoseconds;
- an :class:`~repro.sim.events.Event` — resume when it triggers, receiving
  the trigger value;
- another :class:`Process` — resume when it terminates, receiving its
  return value;
- a store operation from :mod:`repro.sim.resources` (``Store.get()`` etc.).

Every waitable but ``Timeout`` exposes ``_subscribe(resume)``, where
``resume`` is a one-argument callable the waitable invokes (exactly
once) to hand control back; a process binds it once.  Processes
themselves are waitables, so parent/child structuring is free.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ProcessError


class Timeout:
    """Waitable that resumes the process after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ProcessError(f"negative timeout {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Process:
    """A running simulation process wrapping a generator.

    The process starts automatically: its first step is scheduled at the
    current simulated instant.  When the generator returns, the process's
    completion event fires with the return value, waking any process that
    yielded this one.
    """

    __slots__ = ("_sim", "_generator", "name", "_done", "_failure", "_resume")

    def __init__(self, sim, generator: Generator, name: str | None = None):
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        from repro.sim.events import Event

        self._sim = sim
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._done = Event(sim, name=f"{self.name}.done")
        self._failure: BaseException | None = None
        self._resume = self._step
        sim.call_after(0, self._wake)

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return not self._done.triggered

    @property
    def result(self) -> Any:
        """The generator's return value (None until completion)."""
        return self._done.value

    @property
    def failure(self) -> BaseException | None:
        """The exception that killed the process, if any."""
        return self._failure

    # ------------------------------------------------------------------
    # Stepping.
    # ------------------------------------------------------------------

    def _wake(self) -> None:
        """Resume with None: the first step, or a ``Timeout`` expiring."""
        self._step(None)

    def _step(self, value: Any) -> None:
        if self._done._triggered:
            # A waitable resumed us after interrupt()/termination — e.g.
            # a timeout that was already in flight.  Drop it silently;
            # the generator is closed.
            return
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._done.trigger(stop.value)
            return
        except BaseException as exc:
            # Record and re-raise: a crashing process is a bug in the
            # simulation script, not a condition to paper over.
            self._failure = exc
            self._done.trigger(None)
            raise
        if isinstance(target, Timeout):
            self._sim.call_after(target.delay, self._wake)
            return
        try:
            subscribe = target._subscribe
        except AttributeError:
            raise ProcessError(
                f"process {self.name!r} yielded non-waitable "
                f"{type(target).__name__}: {target!r}"
            ) from None
        subscribe(self._resume)

    # Protocol: a Process is itself waitable (resumes with its result).
    def _subscribe(self, resume: Callable[[Any], None]) -> None:
        self._done.add_callback(resume)

    def interrupt(self) -> None:
        """Forcefully terminate the process.

        The generator is closed (its pending ``yield`` raises
        ``GeneratorExit``), and the completion event fires with None.
        """
        if self._done.triggered:
            return
        self._generator.close()
        self._done.trigger(None)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
