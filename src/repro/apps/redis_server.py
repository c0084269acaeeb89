"""The Redis-like server: an event-loop process with Figure 1's costs.

Each event-loop iteration mirrors a real single-threaded server:

1. sleep until the socket is readable (epoll_wait);
2. pay the per-iteration overhead β (``HostCosts.wakeup_ns``): syscall
   return, read, bookkeeping, output flush;
3. read available bytes (optionally chunk-bounded like Redis's 16 KiB
   query buffer) and pay a per-byte parse cost;
4. execute each complete request at cost α (``ServerConfig.alpha_ns``),
   writing replies to the output buffer;
5. flush all replies with one (corked) write.

The batch size per iteration is whatever arrived together — IX-style
adaptive batching "under congestion" (paper §2) emerges naturally, and
sender-side batching (Nagle at the client) grows it further by making
arrivals burstier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.kvstore import KVStore
from repro.apps.messages import Request, Response
from repro.errors import WorkloadError
from repro.tcp.socket import wait_any_readable


@dataclass(frozen=True)
class ServerConfig:
    """Application-level server costs (the α of Figure 1 and friends).

    ``alpha_ns`` — per-request execution (command dispatch, hashing,
    store access).  ``request_byte_ns`` — per received byte of parsing /
    copying.  ``response_byte_ns`` — per response byte built.
    ``read_chunk_bytes`` — per-iteration read bound (None = drain).
    """

    alpha_ns: int = 4_000
    request_byte_ns: float = 0.03
    response_byte_ns: float = 0.02
    read_chunk_bytes: int | None = None
    # IX-style bounded adaptive batching: process at most this many
    # requests per event-loop iteration (None = whatever arrived).
    # Bounding trades peak amortization for fairness across connections
    # and finer-grained output flushing.
    max_batch_requests: int | None = None

    def validate(self) -> None:
        """Raise on nonsensical parameters."""
        if self.alpha_ns < 0:
            raise WorkloadError(f"negative alpha {self.alpha_ns}")
        if self.read_chunk_bytes is not None and self.read_chunk_bytes <= 0:
            raise WorkloadError(
                f"read chunk must be positive, got {self.read_chunk_bytes}"
            )
        if self.max_batch_requests is not None and self.max_batch_requests <= 0:
            raise WorkloadError(
                f"batch bound must be positive, got {self.max_batch_requests}"
            )


class RedisServer:
    """The server process: one event loop driving one or more
    connections (as a real single-threaded server multiplexes clients
    over epoll)."""

    def __init__(self, sim, host, socket, store: KVStore | None = None,
                 config: ServerConfig | None = None, name: str = "redis",
                 extra_sockets: list | None = None):
        self._sim = sim
        self.host = host
        self.socket = socket
        self.sockets = [socket] + list(extra_sockets or [])
        self.store = store or KVStore()
        self.config = config or ServerConfig()
        self.config.validate()
        self.name = name
        self.process = None
        self._backlog: dict[int, list[Request]] = {}
        # Statistics.
        self.iterations = 0
        self.requests_served = 0
        self.batch_sizes: list[int] = []

    def start(self) -> None:
        """Spawn the event-loop process."""
        self.process = self._sim.spawn(self._run(), name=self.name)

    @property
    def mean_batch_size(self) -> float:
        """Average requests processed per event-loop iteration."""
        served = sum(self.batch_sizes)
        if not self.batch_sizes or served == 0:
            return 0.0
        busy_iterations = sum(1 for b in self.batch_sizes if b > 0)
        return served / busy_iterations

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------

    def _run(self):
        host = self.host
        config = self.config
        while True:
            if not self._backlog and all(
                sock.readable_bytes == 0 for sock in self.sockets
            ):
                yield wait_any_readable(
                    self._sim, self.sockets, f"{self.name}.any_readable"
                )
            yield host.app_core.submit(host.costs.wakeup_ns)
            served_this_iteration = 0
            self.iterations += 1
            for sock in self.sockets:
                pending = self._backlog.pop(sock.conn_id, [])
                if sock.readable_bytes > 0:
                    nbytes, parsed = sock.read(config.read_chunk_bytes)
                    pending.extend(parsed)
                    if nbytes > 0:
                        yield host.app_core.submit(
                            round(config.request_byte_ns * nbytes)
                        )
                if not pending:
                    continue
                bound = config.max_batch_requests
                if bound is not None and len(pending) > bound:
                    requests, leftover = pending[:bound], pending[bound:]
                    self._backlog[sock.conn_id] = leftover
                else:
                    requests = pending
                served_this_iteration += len(requests)
                responses = []
                for request in requests:
                    yield host.app_core.submit(config.alpha_ns)
                    responses.append(self._execute(request))
                flush_bytes = sum(response.wire_bytes for response in responses)
                yield host.app_core.submit(
                    host.send_cost_ns(flush_bytes)
                    + round(config.response_byte_ns * flush_bytes)
                )
                self._flush(sock, responses)
            self.batch_sizes.append(served_this_iteration)

    def _execute(self, request: Request) -> Response:
        if request.kind == "SET":
            self.store.set(request.key, request.value_bytes)
            response = Response(request, served_at=self._sim.now)
        else:
            value = self.store.get(request.key)
            response = Response(request, served_at=self._sim.now, value_bytes=value)
        self.requests_served += 1
        return response

    def _flush(self, sock, responses: list[Response]) -> None:
        """One corked write per connection's output buffer."""
        sock.cork()
        try:
            for response in responses:
                sock.send(response, response.wire_bytes)
        finally:
            sock.uncork()
