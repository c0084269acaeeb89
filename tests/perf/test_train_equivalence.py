"""TSO trains change how fast a run goes, never what it computes.

A super-segment that crosses the wire as one train (``Nic._send_train``)
must leave every run exactly where slicing it would have: the same
``RunResult`` tree and the same trace records.  Hypothesis varies the
wire, the NIC's GRO and interrupt settings, the batching heuristics and
the connection count; each case is run as is and with the train
declined everywhere, and the two must agree byte for byte.  The cases
must include runs that form trains and runs that decline them, or the
comparison proves nothing.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.loadgen.arrivals import Workload
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.net.nic import Nic, NicConfig
from repro.obs import Tracer, attach_deep_tracing
from repro.units import KIB, msecs, usecs
from tests.perf.golden import digest

DEFAULT_FLUSH_NS = NicConfig().gro_flush_ns


def run_traced(config: BenchConfig):
    """One traced run: (result digest, trace records, trains, slicings)."""
    tracer = Tracer(label="trains")
    beds = []

    def tweak(bed):
        attach_deep_tracing(bed, tracer)
        beds.append(bed)

    result = run_benchmark(config, tweak=tweak, tracer=tracer)
    nics = (beds[0].client_host.nic, beds[0].server_host.nic)
    return (
        digest(result),
        list(tracer.records),
        sum(nic.tx_trains for nic in nics),
        sum(nic.tx_sliced for nic in nics),
    )


@st.composite
def scenarios(draw):
    mtu = draw(st.sampled_from([1500, 9000]))
    nic = NicConfig(
        mtu=mtu,
        gro_flush_ns=draw(
            st.sampled_from([0, 500, DEFAULT_FLUSH_NS, DEFAULT_FLUSH_NS])
        ),
        # Small enough that the larger super-segments cannot fit.
        gro_max_bytes=draw(
            st.sampled_from([NicConfig().gro_max_bytes, 4 * (mtu - 52)])
        ),
        rx_coalesce_ns=draw(st.sampled_from([0, 2_000])),
    )
    return BenchConfig(
        rate_per_sec=draw(st.sampled_from([5_000.0, 20_000.0])),
        workload=Workload(
            set_ratio=draw(st.sampled_from([1.0, 0.5])),
            value_bytes=draw(st.sampled_from([4 * KIB, 16 * KIB, 40 * KIB])),
        ),
        nagle=draw(st.booleans()),
        autocork=draw(st.booleans()),
        connections=draw(st.integers(1, 8)),
        nic_config=nic,
        bandwidth_bps=draw(
            st.sampled_from([1, 10, 40, 100]) | st.integers(1, 100)
        ) * 1e9,
        # 100 ns is shorter than any train's serialization at 100 Gb/s.
        propagation_delay_ns=draw(st.sampled_from([100, 2_000, usecs(10)])),
        counter_period_ns=usecs(500),
        warmup_ns=msecs(2),
        measure_ns=msecs(6),
        seed=draw(st.integers(1, 1_000)),
    )


BASE = BenchConfig(
    rate_per_sec=20_000.0,
    counter_period_ns=usecs(500),
    warmup_ns=msecs(2),
    measure_ns=msecs(6),
)


def test_trains_reproduce_the_per_slice_path(monkeypatch):
    seen = []

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(config=scenarios())
    # Trains on the paper's wire, and on a wire shorter than a train.
    @example(config=BASE)
    @example(config=replace(BASE, propagation_delay_ns=100, nagle=True))
    # Every train declined: slices outlast the GRO window at 1 Gb/s.
    @example(config=replace(BASE, bandwidth_bps=1e9))
    def check(config):
        result, records, trains, sliced = run_traced(config)
        with monkeypatch.context() as patch:
            patch.setattr(Nic, "_send_train", lambda self, packet: False)
            reference = run_traced(config)
        assert reference[2] == 0
        assert result == reference[0]
        assert records == reference[1]
        seen.append((trains, sliced))

    check()
    assert any(trains for trains, _ in seen), seen
    assert any(sliced for _, sliced in seen), seen
    assert any(trains and sliced for trains, sliced in seen), seen
