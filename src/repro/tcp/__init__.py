"""A from-scratch simulated TCP stack.

Implements the protocol mechanisms the paper's batching analysis depends
on, at byte-stream granularity over the :mod:`repro.net` substrate:

- reliable, in-order byte streams with cumulative acks, retransmission
  timers and fast retransmit (:mod:`~repro.tcp.socket`);
- MSS segmentation with TSO super-segments (:mod:`~repro.tcp.segment`);
- **Nagle's algorithm** and auto-corking — the batching heuristics under
  study (:mod:`~repro.tcp.nagle`);
- **delayed acknowledgments** with quickack-on-full-segments and
  piggybacking (:mod:`~repro.tcp.delack`);
- SRTT/RTO estimation (:mod:`~repro.tcp.rtt`) and Reno-style congestion
  control (:mod:`~repro.tcp.cc`);
- TCP options carrying the end-to-end metadata exchange
  (:mod:`~repro.tcp.options`);
- the three instrumented queues — unacked, unread, ackdelay — updated via
  ``TRACK`` exactly where the paper's kernel patch hooks them
  (:mod:`~repro.tcp.instrumentation`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "connect_pair": ".connect",
    "Segment": ".segment",
    "TcpConfig": ".socket",
    "TcpSocket": ".socket",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
