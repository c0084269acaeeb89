"""Simulated network substrate: packets, links, NICs and topology.

This package stands in for the paper's 100 Gbps ConnectX-5 NICs and the
wire between the two Dell R730 hosts.  It models the mechanisms that the
paper's batching discussion depends on:

- per-packet wire occupancy (serialization at link bandwidth) and
  propagation delay (:mod:`~repro.net.link`);
- a NIC with a TX ring, doorbell batching, TSO-style segmentation of
  super-segments into MTU-sized wire packets, and optional RX interrupt
  coalescing (:mod:`~repro.net.nic`);
- a two-host point-to-point topology helper
  (:mod:`~repro.net.topology`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Link": ".link",
    "Nic": ".nic",
    "NicConfig": ".nic",
    "ETHERNET_OVERHEAD": ".packet",
    "TCPIP_HEADER": ".packet",
    "Packet": ".packet",
    "PointToPoint": ".topology",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
