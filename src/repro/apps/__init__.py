"""Applications: a Redis-like key-value store over the simulated stack.

- :mod:`~repro.apps.resp` — a real RESP (REdis Serialization Protocol)
  encoder/parser; the simulation carries message descriptors whose wire
  sizes are computed by this encoder, and the parser is exercised by the
  protocol test suite.
- :mod:`~repro.apps.kvstore` — the dictionary-backed store.
- :mod:`~repro.apps.messages` — request/response descriptors flowing
  through the simulated sockets.
- :mod:`~repro.apps.redis_server` — the event-loop server process with
  the Figure 1 cost model (β per iteration, α per request).
- :mod:`~repro.apps.redis_client` — the client: open- or closed-loop
  issue process plus a response-draining process (cost c per response).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "KVStore": ".kvstore",
    "Request": ".messages",
    "Response": ".messages",
    "ClientConfig": ".redis_client",
    "RedisClient": ".redis_client",
    "RedisServer": ".redis_server",
    "ServerConfig": ".redis_server",
    "RespParser": ".resp",
    "bulk_reply_bytes": ".resp",
    "command_bytes": ".resp",
    "encode_bulk_reply": ".resp",
    "encode_command": ".resp",
    "encode_simple_string": ".resp",
    "simple_reply_bytes": ".resp",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
