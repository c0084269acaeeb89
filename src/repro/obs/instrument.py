"""Deep socket tracing through the :class:`SocketInstrument` hooks.

The socket's instrument interface (:mod:`repro.tcp.instrumentation`)
exists for message-unit adapters; :class:`TraceInstrument` reuses it as
an observability tap: registered on ``socket.instruments`` it turns
every stream transition — send syscalls, segment departures, ack/read
frontier advances — into ``tcp.event`` trace records.

This is the *deep* (per-syscall, per-segment) level of detail; it is
opt-in (``repro run --deep --trace PATH``) because a loaded run emits tens
of records per request at this level, where the default emit points
(queue samples, exchanges, estimates, decisions) stay at tens per
millisecond for the whole run.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.tcp.instrumentation import SocketInstrument


class TraceInstrument(SocketInstrument):
    """Emits a ``tcp.event`` record per socket progress callback."""

    def __init__(self, socket, tracer=None):
        self._socket = socket
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def _emit(self, event: str, detail) -> None:
        tracer = self._tracer
        if tracer.enabled:
            tracer.tcp_event(self._socket.name, event, detail)

    def on_send(self, nbytes: int) -> None:
        self._emit("send", nbytes)

    def on_segment_sent(self, seq: int, nbytes: int) -> None:
        self._emit("segment_sent", {"seq": seq, "len": nbytes})

    def on_acked(self, new_snd_una: int) -> None:
        self._emit("acked", new_snd_una)

    def on_arrived(self, new_rcv_nxt: int) -> None:
        self._emit("arrived", new_rcv_nxt)

    def on_read(self, new_read_seq: int) -> None:
        self._emit("read", new_read_seq)

    def on_ack_sent(self, acked_upto: int) -> None:
        self._emit("ack_sent", acked_upto)


def attach_deep_tracing(bed, tracer) -> list[TraceInstrument]:
    """Register a :class:`TraceInstrument` on every testbed socket."""
    instruments = []
    for conn in bed.conns:
        for sock in (conn.client_sock, conn.server_sock):
            instrument = TraceInstrument(sock, tracer)
            sock.instruments.append(instrument)
            instruments.append(instrument)
    return instruments
