"""Shared fixtures: simulators, hosts, and connected socket pairs."""

from __future__ import annotations

import pytest

from repro.host.host import Host, HostCosts
from repro.net.nic import NicConfig
from repro.net.topology import PointToPoint
from repro.sim.loop import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connect import connect_pair
from repro.tcp.socket import TcpConfig


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def make_sim():
    """Factory for fresh simulators — determinism tests run several."""
    return Simulator


@pytest.fixture
def rng():
    """A seeded RNG registry."""
    return RngRegistry(seed=42)


class PairFactory:
    """Builds two-host testbeds with connected sockets on demand."""

    def __init__(self, sim):
        self.sim = sim

    def build(
        self,
        nagle: bool = False,
        autocork: bool = False,
        costs: HostCosts | None = None,
        nic_config: NicConfig | None = None,
        tcp_kwargs: dict | None = None,
        loss_probability: float = 0.0,
        loss_rng=None,
        propagation_delay_ns: int = 5_000,
        fault_injector=None,
        tracer=None,
    ):
        """Create (client_host, server_host, client_sock, server_sock).

        ``tracer`` (a :class:`repro.obs.Tracer`) is shared by both hosts,
        so it receives every socket's ``tcp.event`` taps.
        """
        client = Host(
            self.sim, "client", costs=costs, nic_config=nic_config,
            tracer=tracer,
        )
        server = Host(
            self.sim, "server", costs=costs, nic_config=nic_config,
            tracer=tracer,
        )
        PointToPoint.connect(
            self.sim,
            client.nic,
            server.nic,
            propagation_delay_ns=propagation_delay_ns,
            loss_probability=loss_probability,
            loss_rng=loss_rng,
            fault_injector=fault_injector,
        )
        config = TcpConfig(
            nagle=nagle, autocork=autocork, **(tcp_kwargs or {})
        )
        sock_a, sock_b = connect_pair(self.sim, client, server, config, config)
        return client, server, sock_a, sock_b


@pytest.fixture
def pair_factory(sim):
    """Factory fixture for connected host/socket pairs."""
    return PairFactory(sim)


def drain_reader(sim, sock, total_bytes: int, results: dict):
    """Spawn a drain-style reader that stops after ``total_bytes``."""

    def reader():
        got = 0
        messages = []
        while got < total_bytes:
            if sock.readable_bytes == 0:
                yield sock.wait_readable()
            nbytes, msgs = sock.read()
            got += nbytes
            messages.extend(msgs)
        results["bytes"] = got
        results["messages"] = messages
        results["time"] = sim.now
        return None

    return sim.spawn(reader(), name="drain_reader")
