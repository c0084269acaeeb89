"""Per-layer wall-clock ledger, installed from outside the simulator.

A *layer* is a ``repro`` package (``sim``, ``net``, ``tcp``, ``host``,
``apps``, ``core``, ``analysis``, ``loadgen``, ``faults``), with the
windowed engine (``repro.sim.sync`` and the shard map it builds on) and
the worker pool (``repro.parallel`` plus ``repro.supervise``) split out
as ``sim.sync`` and ``parallel``.  Everything else is ``other``.

:meth:`Ledger.install` wraps, in place, every public function and
method of those packages (plus constructors and every generator
function), and every callback handed to ``Simulator.call_at`` /
``call_after``.  A wrapper whose layer differs from the running one
opens a *span* — layer, parent span, start, end — kept in flat arrays
in memory; a call inside the same layer passes straight through.  A
layer's self time is its spans' durations minus their child spans'.

Install before the testbed is built: hot paths bind methods at
construction.  Module-level functions are replaced in every module that
imported them by name.  A forked worker process uninstalls the ledger
at birth, so spans cover the calling process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from array import array
from enum import Enum

LAYERS = (
    "sim", "net", "tcp", "host", "apps", "core", "analysis", "loadgen",
    "faults", "sim.sync", "parallel", "other",
)
OTHER = LAYERS.index("other")

_PACKAGES = (
    "repro.sim", "repro.net", "repro.tcp", "repro.host", "repro.apps",
    "repro.core", "repro.analysis", "repro.loadgen", "repro.faults",
    "repro.supervise", "repro.parallel",
)
_SPLIT = {
    "repro.sim.sync": "sim.sync",
    "repro.sim.shard": "sim.sync",
    "repro.parallel": "parallel",
    "repro.supervise": "parallel",
}

#: Functions counted on every call, by ``module.qualname``.
COUNTED = {
    "repro.tcp.segment.Segment.split_at": "net.tso_splits",
    "repro.tcp.segment.Segment.merge": "net.gro_merges",
    "repro.net.packet.acquire_packet": "net.packet_acquires",
    "repro.net.packet.recycle_packet": "net.packet_recycles",
    "repro.core.qstate.QueueState.track": "core.track_calls",
    "repro.sim.loop.Simulator._note_cancel": "sim.cancelled",
    "repro.supervise.supervisor.Supervisor._schedule_retry": "parallel.retries",
}

_CO_GENERATOR = inspect.CO_GENERATOR


@functools.lru_cache(maxsize=None)
def layer_of(module: str | None) -> int:
    """The layer index owning code defined in ``module``."""
    if not module or not module.startswith("repro."):
        return OTHER
    parts = module.split(".")
    for depth in (3, 2):
        name = _SPLIT.get(".".join(parts[:depth]))
        if name is not None:
            return LAYERS.index(name)
    if parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return OTHER


def _layer_modules():
    """Import and yield every module of the instrumented packages."""
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.walk_packages(
            getattr(package, "__path__", ()), package_name + "."
        ):
            try:
                yield importlib.import_module(info.name)
            except ImportError:
                continue  # an optional dependency is missing


def _wanted(name: str, fn) -> bool:
    return (
        not name.startswith("_")
        or name in ("__init__", "__call__")
        or bool(fn.__code__.co_flags & _CO_GENERATOR)
    )


class _TracedGenerator:
    """A generator whose every resumption runs as a span of its layer.

    Processes (``repro.sim.process``) drive generators from the kernel;
    without this their bodies would be billed to ``sim``.
    """

    __slots__ = ("_ledger", "_generator", "_layer")

    def __init__(self, ledger, generator, layer):
        self._ledger = ledger
        self._generator = generator
        self._layer = layer

    @property
    def __name__(self):
        return self._generator.__name__

    def _resume(self, method, args):
        ledger = self._ledger
        if ledger.layer == self._layer:
            return method(*args)
        return ledger.enter(self._layer, method, args)

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._generator.__next__, ())

    def send(self, value):
        return self._resume(self._generator.send, (value,))

    def throw(self, *args):
        return self._resume(self._generator.throw, args)

    def close(self):
        return self._resume(self._generator.close, ())


class Ledger:
    """Spans and exact counts for one process, installed on demand."""

    def __init__(self):
        self.layer = OTHER        # layer currently running
        self.span = -1            # index of the open span, -1 at the root
        self.starts = array("d")
        self.ends = array("d")
        self.layer_ids = array("b")
        self.parents = array("l")
        self.callbacks = [0] * len(LAYERS)
        self.counts = {name: [0] for name in COUNTED.values()}
        for name in ("sim.scheduled", "parallel.jobs", "sim.sync.windows",
                     "sim.sync.exchanged_events", "sim.sync.payload_bytes"):
            self.counts[name] = [0]
        self.wait_s = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._forked_hook = False

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def enter(self, layer: int, fn, args, kwargs=None):
        """Run ``fn(*args, **kwargs)`` as a span of ``layer``."""
        outer = self.layer
        parent = self.span
        starts = self.starts
        index = len(starts)
        self.layer_ids.append(layer)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.layer = layer
        self.span = index
        starts.append(time.perf_counter())
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            self.ends[index] = time.perf_counter()
            self.layer = outer
            self.span = parent

    def reset(self) -> None:
        """Forget spans and counts (between traced runs)."""
        for column in (self.starts, self.ends, self.layer_ids, self.parents):
            del column[:]
        self.callbacks[:] = [0] * len(LAYERS)
        for cell in self.counts.values():
            cell[0] = 0
        self.wait_s[0] = 0.0

    def self_times(self, wall_s: float) -> dict[str, float]:
        """Per-layer self seconds; ``other`` is ``wall_s`` minus the
        root spans, so the values sum to ``wall_s``.

        Raises ``ValueError`` if a span is unclosed or escapes its
        parent — the spans would then not partition the run.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        n = len(starts)
        child = [0.0] * n
        totals = [0.0] * len(LAYERS)
        for index in range(n - 1, -1, -1):
            start, end, parent = starts[index], ends[index], parents[index]
            duration = end - start
            if end == 0.0 or duration < 0:
                raise ValueError(f"span {index} was never closed")
            if parent >= 0:
                if start < starts[parent] or end > ends[parent]:
                    raise ValueError(f"span {index} escapes its parent")
                child[parent] += duration
            totals[self.layer_ids[index]] += duration - child[index]
        roots = sum(
            ends[i] - starts[i] for i in range(n) if parents[i] < 0
        )
        totals[OTHER] += wall_s - roots
        return {layer: totals[i] for i, layer in enumerate(LAYERS)}

    def write_spans(self, path: str) -> int:
        """Dump the span columns (binary, native order) and a JSON
        header describing them; returns the span count."""
        import json

        with open(path + ".bin", "wb") as out:
            for column in (self.starts, self.ends, self.parents,
                           self.layer_ids):
                column.tofile(out)
        header = {
            "spans": len(self.starts),
            "columns": [
                ["start_s", "d"], ["end_s", "d"], ["parent", "l"],
                ["layer", "b"],
            ],
            "itemsize": {"d": 8, "l": array("l").itemsize, "b": 1},
            "byteorder": sys.byteorder,
            "layers": list(LAYERS),
        }
        with open(path + ".json", "w") as out:
            json.dump(header, out, indent=1)
        return len(self.starts)

    # ------------------------------------------------------------------
    # Wrappers.
    # ------------------------------------------------------------------

    def _wrap(self, fn, layer: int, counter=None):
        ledger = self
        if fn.__code__.co_flags & _CO_GENERATOR:
            def wrapper(*args, **kwargs):
                return _TracedGenerator(ledger, fn(*args, **kwargs), layer)
        elif counter is None:
            def wrapper(*args, **kwargs):
                if ledger.layer == layer:
                    return fn(*args, **kwargs)
                return ledger.enter(layer, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                counter[0] += 1
                if ledger.layer == layer:
                    return fn(*args, **kwargs)
                return ledger.enter(layer, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def owner(self, callback) -> int:
        """The layer that defines ``callback``."""
        target = getattr(callback, "__func__", callback)
        while isinstance(target, functools.partial):
            target = getattr(target.func, "__func__", target.func)
        return layer_of(getattr(target, "__module__", None))

    def _scheduling(self, original):
        """``call_at``/``call_after`` that tag each callback with its
        owning layer; the tag counts and spans the callback when it
        runs."""
        ledger = self
        scheduled = self.counts["sim.scheduled"]
        callbacks = self.callbacks

        def schedule(sim, when, callback):
            scheduled[0] += 1
            layer = ledger.owner(callback)

            def tagged():
                callbacks[layer] += 1
                if ledger.layer == layer:
                    return callback()
                return ledger.enter(layer, callback, ())

            return original(sim, when, tagged)

        return functools.wraps(original)(schedule)

    def _map_outcomes(self, original):
        """``ParallelRunner.map_outcomes``: jobs and coordinator wait."""
        jobs = self.counts["parallel.jobs"]
        wait_s = self.wait_s

        def map_outcomes(runner, fn, items, *args, **kwargs):
            jobs[0] += len(items)
            start = time.perf_counter()
            try:
                return original(runner, fn, items, *args, **kwargs)
            finally:
                wait_s[0] += time.perf_counter() - start

        return functools.wraps(original)(map_outcomes)

    def _run_windowed(self, original):
        """``run_windowed``: window and exchanged-message counts."""
        windows = self.counts["sim.sync.windows"]
        exchanged = self.counts["sim.sync.exchanged_events"]

        def run_windowed(*args, **kwargs):
            result = original(*args, **kwargs)
            windows[0] += result.windows
            exchanged[0] += result.exchanged_events
            return result

        return functools.wraps(original)(run_windowed)

    def _pickler_dumps(self, original):
        """``ForkingPickler.dumps``: bytes pickled to ship jobs."""
        payload = self.counts["sim.sync.payload_bytes"]
        dumps = original.__func__

        def counted(cls, obj, protocol=None):
            data = dumps(cls, obj, protocol)
            payload[0] += len(data)
            return data

        return classmethod(functools.wraps(dumps)(counted))

    # ------------------------------------------------------------------
    # Install / uninstall.
    # ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer entry point in place."""
        if self.installed:
            raise RuntimeError("ledger already installed")
        from multiprocessing.reduction import ForkingPickler

        from repro.parallel import ParallelRunner
        from repro.sim import sync
        from repro.sim.loop import Simulator

        special = {
            (Simulator, "call_at"): self._scheduling,
            (Simulator, "call_after"): self._scheduling,
            (ParallelRunner, "map_outcomes"): self._map_outcomes,
            (sync, "run_windowed"): self._run_windowed,
        }
        replaced: dict[int, object] = {}
        for module in list(_layer_modules()):
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    if value.__module__ != module.__name__:
                        continue
                    factory = special.get((module, name))
                    counter = self._counter(value)
                    if factory is not None:
                        wrapper = self._wrap(factory(value), layer)
                    elif _wanted(name, value) or counter:
                        wrapper = self._wrap(value, layer, counter)
                    else:
                        continue
                    replaced[id(value)] = wrapper
                    self._patch(module, name, wrapper)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (Enum, BaseException))
                ):
                    self._wrap_class(value, layer, special)
        # Functions imported by name elsewhere (``from repro.net.packet
        # import acquire_packet``) are separate module bindings.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and namespace[name] is not wrapper:
                    self._patch(module, name, wrapper)
        self._patch(
            ForkingPickler, "dumps",
            self._pickler_dumps(ForkingPickler.__dict__["dumps"]),
        )
        if not self._forked_hook:
            os.register_at_fork(after_in_child=self._uninstall_in_child)
            self._forked_hook = True

    def _counter(self, fn):
        name = COUNTED.get(f"{fn.__module__}.{fn.__qualname__}")
        return None if name is None else self.counts[name]

    def _wrap_class(self, cls, layer: int, special) -> None:
        for name, member in list(vars(cls).items()):
            factory = special.get((cls, name))
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                if inspect.isfunction(fn) and _wanted(name, fn):
                    self._patch(
                        cls, name, type(member)(self._wrap(fn, layer))
                    )
            elif inspect.isfunction(member):
                counter = self._counter(member)
                if factory is not None:
                    self._patch(
                        cls, name, self._wrap(factory(member), layer)
                    )
                elif _wanted(name, member) or counter:
                    self._patch(
                        cls, name, self._wrap(member, layer, counter)
                    )

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _uninstall_in_child(self) -> None:
        if self.installed:
            self.uninstall()
