"""Deterministic fault injection and the vocabulary to describe it.

``repro.faults`` makes the clean-testbed assumption explicit and
optional: a :class:`FaultPlan` describes a network-misbehavior scenario
(bursty loss, jitter/reordering, link flaps, receiver stalls, metadata
corruption), and a :class:`FaultInjector` wires it into a simulation at
the link, NIC, socket, and metadata-exchange layers.  With no plan
attached every injection point is a single ``is None`` check — fault
support is zero-cost when off, and runs without faults are byte-
identical to builds without this package.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DROP": ".injector",
    "EpisodeLog": ".injector",
    "ExchangeFaultHook": ".injector",
    "FaultInjector": ".injector",
    "LinkFaultHook": ".injector",
    "NicFaultHook": ".injector",
    "FAULT_PLANS": ".plan",
    "DelayJitter": ".plan",
    "ExchangeFaults": ".plan",
    "FaultPlan": ".plan",
    "GilbertElliott": ".plan",
    "LinkFlap": ".plan",
    "NicFaults": ".plan",
    "ReceiverStall": ".plan",
    "named_plan": ".plan",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
