"""Machine-speed calibration for the benchmark's timings.

The host's effective CPU speed drifts by up to 1.6x within minutes
(shared cores), which swamps any regression bound if raw wall seconds
are compared across runs.  :func:`calibration_s` times three fixed
pure-Python loops that import nothing from ``repro``, so no change to
the program can speed them up:

- an event loop: a heap of timestamped events driving slotted objects,
  shaped like the simulator's dispatch;
- a pointer chase through an 8k-object graph, for a working set beyond
  the first-level caches;
- allocation, dict churn and sorts, shaped like the records and
  summaries a run builds.

Their memory stays small (under a megabyte), so the calibration never
sets the process's peak resident memory.

Each loop takes about the same time, and their sum tracks the
simulator better than any one of them: on ``faults_on`` the spread
across 20 s windows was 0.166 unscaled, 0.081–0.096 scaled by one loop
and 0.063 scaled by the sum.  The benchmark calibrates before and after
every timed run and reports times scaled to the speed at which the
sum takes :data:`REFERENCE_S`; raw wall seconds are kept beside them.
"""

from __future__ import annotations

import heapq
import random
import time

#: The calibration's duration defining "reference speed".
REFERENCE_S = 0.075


class _Port:
    __slots__ = ("busy_until", "sent")

    def __init__(self):
        self.busy_until = 0
        self.sent = 0

    def offer(self, now: int, size: int) -> int:
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + size
        self.sent += 1
        return self.busy_until


class _Node:
    __slots__ = ("index", "hits", "last", "peer")

    def __init__(self, index: int):
        self.index = index
        self.hits = 0
        self.last = None
        self.peer = None

    def touch(self, now: int) -> "_Node":
        self.hits += 1
        self.last = (now, self.index)
        return self.peer


class _Record:
    __slots__ = ("rid", "kind", "start", "end")

    def __init__(self, rid: int, kind: str, start: int):
        self.rid = rid
        self.kind = kind
        self.start = start
        self.end = None


def _event_loop(events: int = 20_000) -> None:
    ports = [_Port() for _ in range(8)]
    tallies: dict = {}
    heap = [(0, 0, 0)]
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for _ in range(events):
        now, _, index = pop(heap)
        done = ports[index].offer(now, 100 + (seq * 7919) % 1400)
        key = (index, seq & 15)
        tallies[key] = tallies.get(key, 0) + 1
        seq += 1
        push(heap, (done, seq, (index * 5 + seq) % 8))
        if seq % 4 == 0:
            seq += 1
            push(heap, (now + 10_000, seq, seq % 8))


def _object_graph(objects: int = 8_000, steps: int = 24_000) -> None:
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(objects)]
    for node in nodes:
        node.peer = nodes[rng.randrange(objects)]
    index = 0
    for now in range(steps):
        nodes[index].touch(now).touch(now)
        index = (index * 7919 + now) % objects


def _records(count: int = 20_000, batch: int = 2_000) -> None:
    live = {}
    done = []
    for rid in range(count):
        live[rid] = _Record(rid, "GET" if rid & 1 else "SET", rid * 10)
        if rid >= 50:
            record = live.pop(rid - 50)
            record.end = rid * 10 + (rid * 7919) % 311
            done.append(record)
        if len(done) == batch:
            done.sort(key=lambda r: (r.end - r.start, r.rid))
            sum(r.end - r.start for r in done if r.kind == "GET")
            ",".join(str(r.rid) for r in done[:200])
            done = []


def calibration_s() -> float:
    """Wall seconds for one pass of the three calibration loops."""
    start = time.perf_counter()
    _event_loop()
    _object_graph()
    _records()
    return time.perf_counter() - start


def speed_scale(before_s: float, after_s: float) -> float:
    """Factor turning wall seconds measured between two calibrations
    into reference-speed seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2)
