"""Readiness waits on several sockets: :func:`wait_any_readable`.

An epoll-style server waits on all of its sockets at once.  One waiter
goes on every socket, the first socket to turn readable wakes it, and
it then leaves the others, so a socket that stays idle never collects
waiters that lost.  The wake keeps the two zero-delay hops of a wait on
one socket's event, so a one-socket server runs exactly the events it
always ran.
"""

from __future__ import annotations

import pytest

from repro.apps import redis_server
from repro.apps.kvstore import KVStore
from repro.apps.redis_client import ClientConfig, RedisClient
from repro.apps.redis_server import RedisServer
from repro.host.host import Host
from repro.loadgen.arrivals import Workload, poisson_schedule
from repro.net.topology import PointToPoint
from repro.rpc import RpcChannel, RpcMethod, RpcServer
from repro.sim.events import Event
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connect import connect_pair
from repro.tcp.socket import TcpConfig, wait_any_readable

MS = 1_000_000
ECHO = RpcMethod(method_id=1, name="echo", reply_bytes_fn=lambda n: n)


def _per_socket_wait(sim, sockets, name):
    """The reference: the servers' wait before ``wait_any_readable``,
    one event per socket, none withdrawn when another socket wins."""
    combined = Event(sim, name=name)

    def forward(_value):
        if not combined.triggered:
            combined.trigger()

    for sock in sockets:
        sock.wait_readable().add_callback(forward)
    return combined


def _hosts(connections):
    sim = Simulator()
    client_host = Host(sim, "client")
    server_host = Host(sim, "server")
    PointToPoint.connect(
        sim, client_host.nic, server_host.nic, propagation_delay_ns=5_000
    )
    config = TcpConfig()
    pairs = [
        connect_pair(sim, client_host, server_host, config, config,
                     name=f"conn{index}")
        for index in range(connections)
    ]
    return sim, client_host, server_host, pairs


def _redis_run(connections, busy=1, until_ms=25):
    """One server over ``connections`` sockets; only the first ``busy``
    carry Poisson load (20k RPS each for 20 ms)."""
    sim, client_host, server_host, pairs = _hosts(connections)
    server = RedisServer(
        sim, server_host, pairs[0][1], store=KVStore(),
        extra_sockets=[server_sock for _, server_sock in pairs[1:]],
    )
    server.start()
    clients = []
    for index in range(busy):
        client = RedisClient(
            sim, client_host, pairs[index][0], config=ClientConfig(),
            name=f"lancet{index}",
        )
        client.start(poisson_schedule(
            RngRegistry(5).stream(f"arrivals.{index}"), Workload(),
            20_000.0, start_ns=0, duration_ns=20 * MS,
        ))
        clients.append(client)
    sim.run(until=until_ms * MS)
    return sim, server, clients, [server_sock for _, server_sock in pairs]


def _timings(client):
    # Request ids come from a process-wide counter, so they differ
    # between two runs in one process; everything else must not.
    return [
        (r.kind, r.completed_at, r.latency_ns, r.send_latency_ns)
        for r in client.records
    ]


class TestStaleWaiters:
    def test_silent_sockets_hold_at_most_one_waiter(self):
        # The old wait left one event per wait on every socket that lost:
        # 627 of them on each silent socket after this run.
        for until_ms in (5, 15, 25):
            _, server, _, sockets = _redis_run(8, until_ms=until_ms)
            assert server.requests_served > 0
            for sock in sockets[1:]:
                assert len(sock._readers) <= 1, (until_ms, sock.name)

    def test_busy_sockets_hold_at_most_one_waiter(self):
        _, server, _, sockets = _redis_run(8, busy=3)
        assert server.requests_served > 1000
        assert [len(sock._readers) for sock in sockets] == [1] * 8

    def test_same_service_as_the_per_socket_wait(self, monkeypatch):
        sim, server, clients, _ = _redis_run(8, busy=3)
        monkeypatch.setattr(
            redis_server, "wait_any_readable", _per_socket_wait
        )
        ref_sim, ref_server, ref_clients, _ = _redis_run(8, busy=3)
        assert server.batch_sizes == ref_server.batch_sizes
        for client, ref_client in zip(clients, ref_clients):
            assert _timings(client) == _timings(ref_client)
        # Only the losers' no-op forwards are gone.
        assert sim.events_executed < ref_sim.events_executed


class TestOneSocketEvents:
    """A one-socket server executes the events it always executed
    (``BottleneckResult.events_executed`` and
    ``ShardedFaninResult.events_executed`` are golden-digested)."""

    def test_redis_server(self, monkeypatch):
        sim, server, _, _ = _redis_run(1)
        assert (sim.events_executed, server.requests_served) == (14_747, 420)
        monkeypatch.setattr(
            redis_server, "wait_any_readable", _per_socket_wait
        )
        ref_sim, _, _, _ = _redis_run(1)
        assert ref_sim.events_executed == sim.events_executed

    def test_rpc_server(self):
        sim, client_host, server_host, [(client_sock, server_sock)] = (
            _hosts(1)
        )
        channel = RpcChannel(sim, client_host, client_sock)
        server = RpcServer(sim, server_host, [server_sock])
        server.register(ECHO)
        server.start()

        def caller():
            for index in range(50):
                yield channel.call(ECHO.method_id, 1000 + 10 * index)

        sim.spawn(caller())
        sim.run(until=50 * MS)
        assert (sim.events_executed, server.calls_served) == (829, 45)


def _send_one(sim, client_sock, nbytes=100):
    client_sock.send("ping", nbytes)
    sim.run(until=sim.now + MS)


@pytest.fixture
def four_pairs():
    return _hosts(4)


class TestWake:
    def _waiting(self, sim, sockets):
        woken = []
        event = wait_any_readable(sim, sockets, "test.any_readable")
        event.add_callback(lambda _value: woken.append(sim.now))
        return event, woken

    def test_first_readable_socket_wakes_and_withdraws(self, four_pairs):
        sim, _, _, pairs = four_pairs
        sockets = [server_sock for _, server_sock in pairs]
        event, woken = self._waiting(sim, sockets)
        assert [len(sock._readers) for sock in sockets] == [1] * 4
        _send_one(sim, pairs[2][0])
        assert event.triggered and len(woken) == 1
        assert [len(sock._readers) for sock in sockets] == [0] * 4
        _send_one(sim, pairs[0][0])  # a loser turning readable later
        assert len(woken) == 1

    def test_already_readable_socket_wakes(self, four_pairs):
        sim, _, _, pairs = four_pairs
        sockets = [server_sock for _, server_sock in pairs]
        _send_one(sim, pairs[3][0])
        assert sockets[3].readable_bytes > 0
        event, woken = self._waiting(sim, sockets)
        assert not any(sock._readers for sock in sockets)
        # Two zero-delay hops: the forward, then the waiter's callback.
        # (``run(until=...)`` ran everything due at this instant, so
        # nothing else is due now.)
        now = sim.now
        sim.step()
        assert event.triggered and not woken
        sim.step()
        assert woken == [now]

    def test_lifted_read_stall_wakes(self, four_pairs):
        sim, _, _, pairs = four_pairs
        sockets = [server_sock for _, server_sock in pairs]
        sockets[1].set_read_stall(True)
        _send_one(sim, pairs[1][0])
        assert sockets[1].readable_bytes == 0  # stalled: nothing to read
        event, woken = self._waiting(sim, sockets)
        sim.run(until=sim.now + MS)
        assert not event.triggered
        sockets[1].set_read_stall(False)
        sim.run(until=sim.now + MS)
        assert event.triggered and len(woken) == 1
        assert not any(sock._readers for sock in sockets)
