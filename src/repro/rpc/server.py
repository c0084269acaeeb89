"""The RPC server: a method registry plus the standard event loop.

Handlers are registered per method id with a cost model (fixed CPU cost
plus per-request-byte cost) and a reply-size function — the simulation
analogue of business logic.  The loop mirrors the Redis-like server:
wakeup cost per iteration, handler cost per call, one corked flush per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ProtocolError
from repro.rpc.messages import RpcReply, RpcRequest
from repro.tcp.socket import wait_any_readable


@dataclass(frozen=True)
class RpcMethod:
    """One registered method.

    ``reply_bytes_fn`` maps the request payload size to the reply
    payload size; ``cost_ns`` is the handler's fixed CPU cost and
    ``byte_cost_ns`` its per-request-byte cost.
    """

    method_id: int
    name: str
    reply_bytes_fn: Callable[[int], int]
    cost_ns: int = 5_000
    byte_cost_ns: float = 0.02


class RpcServer:
    """Serves registered methods over one or more connections."""

    def __init__(self, sim, host, sockets, name: str = "rpc-server"):
        if not sockets:
            raise ProtocolError("an RPC server needs at least one socket")
        self._sim = sim
        self.host = host
        self.sockets = list(sockets)
        self.name = name
        self._methods: dict[int, RpcMethod] = {}
        self.process = None
        self.calls_served = 0
        self.errors_returned = 0
        self.iterations = 0

    def register(self, method: RpcMethod) -> None:
        """Add a method to the registry."""
        if method.method_id in self._methods:
            raise ProtocolError(f"method id {method.method_id} already bound")
        self._methods[method.method_id] = method

    def start(self) -> None:
        """Spawn the event loop."""
        if not self._methods:
            raise ProtocolError("no methods registered")
        self.process = self._sim.spawn(self._run(), name=self.name)

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------

    def _run(self):
        host = self.host
        while True:
            if all(sock.readable_bytes == 0 for sock in self.sockets):
                yield wait_any_readable(
                    self._sim, self.sockets, f"{self.name}.any_readable"
                )
            yield host.app_core.submit(host.costs.wakeup_ns)
            self.iterations += 1
            for sock in self.sockets:
                if sock.readable_bytes == 0:
                    continue
                _, requests = sock.read()
                if not requests:
                    continue
                replies = []
                for request in requests:
                    reply, cost = self._serve(request)
                    yield host.app_core.submit(cost)
                    replies.append(reply)
                flush_bytes = sum(reply.wire_bytes for reply in replies)
                yield host.app_core.submit(host.send_cost_ns(flush_bytes))
                sock.cork()
                try:
                    for reply in replies:
                        sock.send(reply, reply.wire_bytes)
                finally:
                    sock.uncork()

    def _serve(self, request: RpcRequest) -> tuple[RpcReply, int]:
        method = self._methods.get(request.method_id)
        self.calls_served += 1
        if method is None:
            self.errors_returned += 1
            reply = RpcReply(
                request=request, payload_bytes=0,
                served_at=self._sim.now, is_error=True,
            )
            return reply, 1_000  # cheap rejection
        cost = method.cost_ns + round(method.byte_cost_ns * request.payload_bytes)
        reply = RpcReply(
            request=request,
            payload_bytes=method.reply_bytes_fn(request.payload_bytes),
            served_at=self._sim.now,
        )
        return reply, cost

