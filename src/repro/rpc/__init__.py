"""A minimal request/response RPC framework with built-in hints.

The paper argues (§3.3) that its ``create``/``complete`` hint API "can
easily be integrated into C runtime libraries, making little or no
assumptions about application-specific semantics ... suitable for
adoption by popular request-response frameworks like gRPC and Thrift."
This package demonstrates exactly that integration: a small RPC layer
over the simulated TCP substrate whose *channel* drives a
:class:`~repro.core.hints.HintSession` transparently — applications get
accurate end-to-end estimation on both endpoints without touching a
single counter.

- :mod:`~repro.rpc.framing` — length-prefixed wire framing (method id,
  call id, payload length) with exact byte accounting;
- :mod:`~repro.rpc.channel` — the client side: ``call()`` issues a
  request and returns a waitable reply future; hints fire on issue and
  completion;
- :mod:`~repro.rpc.server` — the server side: a method registry plus
  the standard event-loop process.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RpcCallFuture": ".channel",
    "RpcChannel": ".channel",
    "FRAME_HEADER_BYTES": ".framing",
    "frame_bytes": ".framing",
    "RpcMethod": ".server",
    "RpcServer": ".server",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
