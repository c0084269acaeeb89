"""The Redis-like client: request issue + response drain processes.

Two cooperating processes share the client's app core:

- the **issuer** walks an arrival schedule (open loop) or waits for the
  previous response (closed loop), pays the send-syscall cost, stamps
  ``sent_at``, and writes the request to the socket;
- the **drainer** is an event loop like the server's: wakeup cost per
  iteration, then cost *c* (``ClientConfig.c_ns``) per response
  processed — the client-side processing cost whose magnitude flips the
  value of batching (Figure 1 / Figure 2).

Latencies are recorded per response: end-to-end from ``created_at``
(scheduled arrival — includes client-side queueing) and from ``sent_at``
(what the in-kernel estimator can see).  The optional
:class:`~repro.core.hints.HintSession` is driven exactly as §3.3
prescribes: ``create`` on issue, ``complete`` on response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.apps.messages import Request, Response
from repro.errors import WorkloadError
from repro.sim.events import Event
from repro.sim.process import Timeout


@dataclass(frozen=True)
class ClientConfig:
    """Client-side costs and mode.

    ``c_ns`` is Figure 1's per-response client processing cost:
    latency timestamping, stats insertion, validation — work a load
    generator (or any response consumer) does per reply.
    ``iteration_extra_ns`` is the drain loop's per-wakeup overhead on
    top of the host's generic wakeup cost (receive-path bookkeeping a
    measurement client performs per epoll round).  Response batching
    amortizes it — this is the client-side β of Figure 1.
    ``closed_loop`` issues the next request only after the previous
    response; otherwise the schedule is open loop.
    """

    c_ns: int = 2_000
    iteration_extra_ns: int = 2_000
    response_byte_ns: float = 0.02
    closed_loop: bool = False


@dataclass
class CompletionRecord:
    """One completed request/response pair."""

    request_id: int
    kind: str
    completed_at: int
    latency_ns: int          # from scheduled creation (user-perceived)
    send_latency_ns: int     # from the send syscall (stack-visible)


class RedisClient:
    """Drives one connection against the server."""

    def __init__(
        self,
        sim,
        host,
        socket,
        config: ClientConfig | None = None,
        hint_session=None,
        name: str = "lancet",
    ):
        self._sim = sim
        self.host = host
        self.socket = socket
        self.config = config or ClientConfig()
        self.hint_session = hint_session
        self.name = name
        self.records: list[CompletionRecord] = []
        self.requests_sent = 0
        self.responses_received = 0
        self._issuer = None
        self._drainer = None
        self._closed_loop_gate = None

    def start(self, schedule: Iterable[tuple[int, Request]]) -> None:
        """Spawn issuer and drainer over an arrival schedule.

        ``schedule`` yields ``(time_ns, request)`` pairs in time order;
        in closed-loop mode the times act as minimum issue times.
        """
        self._issuer = self._sim.spawn(
            self._issue(iter(schedule)), name=f"{self.name}.issue"
        )
        self._drainer = self._sim.spawn(self._drain(), name=f"{self.name}.drain")

    # ------------------------------------------------------------------
    # Issue side.
    # ------------------------------------------------------------------

    def _issue(self, schedule):
        for when, request in schedule:
            if when < self._sim.now and not self.config.closed_loop:
                # The schedule is behind the clock only if the app core
                # backlog delayed us; issue immediately (open loop never
                # skips requests).
                pass
            elif when > self._sim.now:
                yield Timeout(when - self._sim.now)
            if self.config.closed_loop and self.requests_sent > self.responses_received:
                gate = Event(self._sim, name=f"{self.name}.gate")
                self._closed_loop_gate = gate
                yield gate
            yield self.host.app_core.submit(
                self.host.send_cost_ns(request.wire_bytes)
            )
            request.sent_at = self._sim.now
            if self.hint_session is not None:
                self.hint_session.create(1)
            self.requests_sent += 1
            self.socket.send(request, request.wire_bytes)

    # ------------------------------------------------------------------
    # Drain side.
    # ------------------------------------------------------------------

    def _drain(self):
        sock = self.socket
        host = self.host
        while True:
            if sock.readable_bytes == 0:
                yield sock.wait_readable()
            yield host.app_core.submit(
                host.costs.wakeup_ns + self.config.iteration_extra_ns
            )
            nbytes, responses = sock.read()
            if nbytes > 0:
                yield host.app_core.submit(
                    round(self.config.response_byte_ns * nbytes)
                )
            for response in responses:
                yield host.app_core.submit(self.config.c_ns)
                self._complete(response)

    def _complete(self, response: Response) -> None:
        request = response.request
        if request.sent_at is None:
            raise WorkloadError(
                f"response for request {request.request_id} that was never sent"
            )
        now = self._sim.now
        if self.hint_session is not None:
            self.hint_session.complete(1)
        self.responses_received += 1
        self.records.append(
            CompletionRecord(
                request_id=request.request_id,
                kind=request.kind,
                completed_at=now,
                latency_ns=now - request.created_at,
                send_latency_ns=now - request.sent_at,
            )
        )
        if self._closed_loop_gate is not None:
            gate, self._closed_loop_gate = self._closed_loop_gate, None
            gate.trigger()
