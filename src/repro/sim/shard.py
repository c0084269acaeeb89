"""Intra-run sharding: partition one simulation, merge deterministically.

Campaign-level parallelism (:mod:`repro.parallel`) only helps when there
are many runs; a single large scenario — the fan-in experiments, the
buffer-sizing sweeps where *n* flows is the variable — still executes on
one core.  The windowed engine (:mod:`repro.sim.sync`) lets one run span
a worker pool; this module supplies the two primitives it and its
consumers rely on to keep determinism:

- :class:`ShardPlan` partitions a scenario's components (connections,
  flows, the fabric) into shards by a fixed rule, so the same
  ``(count, shards)`` always yields the same partition;
- :func:`merge_streams` recombines per-component timestamped event
  streams into one totally-ordered stream whose order is **invariant to
  the partition**.

The determinism contract
------------------------

Merged order is ``(timestamp, component index, per-component
sequence)`` — note what is *absent*: the shard index.  A shard is an
execution placement, not an identity; keying the merge on it would make
output depend on how work was dealt out.  Because each component's
sub-simulation is seeded independently of the partition (its RNG
streams are named by *global* component index) and the merge key is
partition-free, the merged stream — and everything derived from it — is
byte-identical for every shard count, including the in-process serial
run.  ``tests/sim/test_shard.py`` fuzzes this; CI byte-diffs a
2-worker sharded fan-in against the serial one.

Ordering within the key is total by construction: a component's events
carry strictly increasing sequence numbers, and two events from
different components at the same timestamp order by component index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import merge as _heap_merge

from repro.errors import WorkloadError


@dataclass(frozen=True)
class ShardPlan:
    """A fixed partition of ``count`` components into ``shards`` groups.

    Components are dealt round-robin (component ``i`` lands in shard
    ``i % shards``), so the partition depends only on ``(count,
    shards)`` — never on timing, hashing, or load.  Empty shards are
    dropped: asking for more shards than components yields one
    single-component shard each.
    """

    count: int
    shards: int
    assignments: tuple[tuple[int, ...], ...]

    @classmethod
    def round_robin(cls, count: int, shards: int) -> "ShardPlan":
        """Partition ``count`` components across ``shards`` groups."""
        if count < 1:
            raise WorkloadError(f"need at least one component, got {count}")
        if shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {shards}")
        effective = min(shards, count)
        groups: list[list[int]] = [[] for _ in range(effective)]
        for index in range(count):
            groups[index % effective].append(index)
        return cls(
            count=count,
            shards=effective,
            assignments=tuple(tuple(group) for group in groups),
        )

    def shard_of(self, index: int) -> int:
        """Which shard a component landed in.

        Answered from the stored partition, not by re-deriving the
        round-robin rule — a plan constructed with a different placement
        policy (or a hand-built one) stays consistent with itself.
        """
        if not 0 <= index < self.count:
            raise WorkloadError(
                f"component {index} out of range 0..{self.count - 1}"
            )
        for shard, group in enumerate(self.assignments):
            if index in group:
                return shard
        raise WorkloadError(
            f"component {index} is missing from the stored partition"
        )


def merge_streams(streams):
    """Merge per-component event streams into one ordered stream.

    ``streams`` is an iterable of ``(component_index, events)`` pairs
    where ``events`` is a list of ``(timestamp, payload)`` tuples in
    that component's emission order (timestamps non-decreasing within a
    component).  Returns a list of ``(timestamp, component_index,
    sequence, payload)`` tuples in the contract order ``(timestamp,
    component index, sequence)``.

    Implemented as a k-way heap merge over per-component generators —
    O(total log k) — which is stable because each generator's keys are
    strictly increasing (the per-component sequence breaks timestamp
    ties within a component).
    """

    def keyed(component: int, events):
        previous = None
        for sequence, (timestamp, payload) in enumerate(events):
            if previous is not None and timestamp < previous:
                raise WorkloadError(
                    f"component {component} events out of order: "
                    f"{previous} -> {timestamp}"
                )
            previous = timestamp
            yield (timestamp, component, sequence, payload)

    ordered = sorted(streams, key=lambda pair: pair[0])
    seen: set[int] = set()
    for component, _events in ordered:
        # A component index appearing in two streams would interleave
        # two independent sequence counters under one key, silently
        # corrupting the total order — refuse instead.
        if component in seen:
            raise WorkloadError(
                f"component {component} appears in more than one stream"
            )
        seen.add(component)
    generators = [keyed(component, events) for component, events in ordered]
    return list(_heap_merge(*generators))


def merge_digest(merged) -> str:
    """SHA-256 fingerprint of a merged stream, order-sensitive.

    Two runs with the same fingerprint produced the same events in the
    same merged order — the checkable form of the determinism contract
    (a sorted-equal comparison would not notice a merge-order bug).
    """
    hasher = hashlib.sha256()
    for timestamp, component, sequence, payload in merged:
        hasher.update(
            f"{timestamp}:{component}:{sequence}:{payload!r}\n".encode()
        )
    return hasher.hexdigest()
