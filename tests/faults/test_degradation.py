"""Graceful-degradation tests: the estimator, exchange and toggler must
absorb mangled inputs without emitting nonsense or oscillating."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.estimator import E2EEstimator
from repro.core.exchange import (
    OPTION_E2E,
    MetadataExchange,
    WirePeerState,
    WireQueueState,
)
from repro.core.policy import LatencyFirstPolicy, PerfSample
from repro.core.qstate import QueueSnapshot, TripleSnapshot
from repro.core.toggler import NagleToggler, TogglerConfig
from repro.experiments.faults import min_toggle_gap_ticks
from repro.faults import named_plan
from repro.loadgen.lancet import BenchConfig, build_testbed, run_benchmark
from repro.sim.rng import RngRegistry
from repro.units import msecs, usecs


def wire_state(time32, total32=0, integral32=0):
    return WirePeerState(
        unacked=WireQueueState(time32, total32, integral32),
        unread=WireQueueState(time32, total32, integral32),
        ackdelay=WireQueueState(time32, total32, integral32),
    )


def make_exchange(sim, **kwargs):
    return MetadataExchange(sim, SimpleNamespace(), period_ns=1000, **kwargs)


class TestExchangeHardening:
    def test_same_microsecond_movement_is_plausible(self, sim):
        exchange = make_exchange(sim)
        exchange.on_receive({OPTION_E2E: wire_state(100, 50, 10)})
        # Wire time has us resolution: two states within the same us
        # legitimately show zero time progress and a little movement.
        exchange.on_receive({OPTION_E2E: wire_state(100, 55, 12)})
        assert exchange.states_rejected == 0
        assert exchange.remote_cur.unacked.total == 55

    def test_zero_dt_counter_jump_rejected(self, sim):
        exchange = make_exchange(sim)
        exchange.on_receive({OPTION_E2E: wire_state(100, 50, 10)})
        corrupt = wire_state(100, 50 + (1 << 25), 10)
        exchange.on_receive({OPTION_E2E: corrupt})
        assert exchange.states_rejected == 1
        assert exchange.remote_cur.unacked.total == 50  # baseline kept
        # With modular unwrapping a replayed *older* counter also
        # surfaces as a huge forward jump and dies the same way.
        exchange.on_receive({OPTION_E2E: wire_state(100, 49, 10)})
        assert exchange.states_rejected == 2

    def test_zero_dt_integral_jump_rejected(self, sim):
        exchange = make_exchange(sim)
        exchange.on_receive({OPTION_E2E: wire_state(100, 50, 10)})
        exchange.on_receive({OPTION_E2E: wire_state(100, 50, 10 + (1 << 25))})
        assert exchange.states_rejected == 1

    def test_gap_check_bounds_time_progress(self, sim):
        exchange = make_exchange(sim, max_gap_ns=msecs(1))
        exchange.on_receive({OPTION_E2E: wire_state(100)})
        # 2000 us of wire-time progress > the 1 ms budget.
        exchange.on_receive({OPTION_E2E: wire_state(2100)})
        assert exchange.states_rejected == 1
        # A plausible successor is still accepted against the kept
        # baseline.
        exchange.on_receive({OPTION_E2E: wire_state(600, 5, 1)})
        assert exchange.states_rejected == 1
        assert exchange.remote_prev is not None

    def test_rejection_keeps_last_received_time(self, sim):
        exchange = make_exchange(sim)
        exchange.on_receive({OPTION_E2E: wire_state(100, 50, 10)})
        before = exchange.last_received_ns
        sim.call_at(usecs(50), lambda: exchange.on_receive(
            {OPTION_E2E: wire_state(100, 50 + (1 << 25), 10)}))
        sim.run()
        assert exchange.last_received_ns == before
        assert exchange.staleness_ns() == sim.now - before

    def test_persistent_implausibility_rebaselines(self, sim):
        exchange = make_exchange(sim, max_gap_ns=msecs(1))
        exchange.on_receive({OPTION_E2E: wire_state(100)})
        # Three consecutive rejections mean *our* baseline is the wrong
        # side; the third incoming state is adopted fresh.
        for time32 in (50_100, 50_200, 50_300):
            exchange.on_receive({OPTION_E2E: wire_state(time32, 9, 3)})
        assert exchange.states_rejected == 3
        assert exchange.rebaselines == 1
        assert exchange.remote_prev is None  # no interval spans the jump
        assert exchange.remote_cur is not None
        exchange.on_receive({OPTION_E2E: wire_state(50_400, 12, 4)})
        assert exchange.states_rejected == 3
        assert exchange.remote_prev is not None


class _StubQueue:
    """Replays a prepared list of snapshots."""

    def __init__(self, snapshots):
        self._snapshots = list(snapshots)

    def snapshot(self):
        return self._snapshots.pop(0)


def stub_side(unacked, unread, ackdelay):
    return SimpleNamespace(
        qs_unacked=_StubQueue(unacked),
        qs_unread=_StubQueue(unread),
        qs_ackdelay=_StubQueue(ackdelay),
    )


def snap(time, total, integral):
    return QueueSnapshot(time=time, total=total, integral=integral)


class TestEstimatorHardening:
    def test_negative_estimate_clamped_to_zero(self):
        # Local unacked delay 10 ns, remote ackdelay 1000 ns: the raw
        # combination is -990 ns, which is never meaningful.
        local = stub_side(
            unacked=[snap(0, 0, 0), snap(1000, 100, 1000)],
            unread=[snap(0, 0, 0), snap(1000, 100, 0)],
            ackdelay=[snap(0, 0, 0), snap(1000, 0, 0)],
        )
        remote = stub_side(
            unacked=[snap(0, 0, 0), snap(1000, 100, 0)],
            unread=[snap(0, 0, 0), snap(1000, 100, 0)],
            ackdelay=[snap(0, 0, 0), snap(1000, 100, 100_000)],
        )
        estimator = E2EEstimator(local, remote=remote)
        assert estimator.sample() is None  # baseline
        sample = estimator.sample()
        assert sample.latency_ns == 0.0
        assert estimator.negative_clamps == 1

    def test_absurd_estimate_clamped_to_ceiling(self):
        local = stub_side(
            unacked=[snap(0, 0, 0), snap(1000, 100, 1_000_000)],
            unread=[snap(0, 0, 0), snap(1000, 100, 0)],
            ackdelay=[snap(0, 0, 0), snap(1000, 0, 0)],
        )
        remote = stub_side(
            unacked=[snap(0, 0, 0), snap(1000, 100, 0)],
            unread=[snap(0, 0, 0), snap(1000, 100, 0)],
            ackdelay=[snap(0, 0, 0), snap(1000, 100, 0)],
        )
        estimator = E2EEstimator(local, remote=remote, max_latency_ns=500.0)
        estimator.sample()
        sample = estimator.sample()
        assert sample.latency_ns == 500.0
        assert estimator.absurd_clamps == 1

    def _local_stub(self):
        return stub_side(
            unacked=[snap(0, 0, 0), snap(1000, 100, 1000)],
            unread=[snap(0, 0, 0), snap(1000, 100, 0)],
            ackdelay=[snap(0, 0, 0), snap(1000, 0, 0)],
        )

    def _peer(self, time, total=10, integral=0, unread_total=None):
        unread = snap(
            time, total if unread_total is None else unread_total, integral,
        )
        return TripleSnapshot(
            unacked=snap(time, total, integral),
            unread=unread,
            ackdelay=snap(time, total, integral),
        )

    def test_stale_remote_view_is_discarded(self):
        fake = SimpleNamespace(
            remote_prev=None, remote_cur=None, staleness_ns=lambda: 5_000,
        )
        estimator = E2EEstimator(
            self._local_stub(), exchange=fake, max_staleness_ns=100,
        )
        assert estimator.sample() is None
        fake.remote_prev = self._peer(0)
        fake.remote_cur = self._peer(1000, total=20)
        sample = estimator.sample()
        assert sample.latency_ns is None  # local-only, not a stale guess
        assert estimator.stale_rejections == 1

    def test_nonmonotonic_remote_interval_is_discarded(self):
        fake = SimpleNamespace(
            remote_prev=None, remote_cur=None, staleness_ns=lambda: 0,
        )
        estimator = E2EEstimator(self._local_stub(), exchange=fake)
        assert estimator.sample() is None
        fake.remote_prev = self._peer(0, total=10)
        fake.remote_cur = self._peer(1000, total=20, unread_total=5)
        sample = estimator.sample()
        assert sample.latency_ns is None
        assert estimator.nonmonotonic_rejections == 1


def run_toggler(sim, sample_fn, config, loss_signal_fn=None, ticks=10):
    toggler = NagleToggler(
        sim,
        sample_fn=sample_fn,
        apply_fn=lambda mode: None,
        policy=LatencyFirstPolicy(),
        rng=RngRegistry(seed=7).stream("toggler"),
        config=config,
        initial_mode=False,
        loss_signal_fn=loss_signal_fn,
    )
    toggler.start()
    sim.run(until=config.tick_ns * ticks + 1)
    return toggler


class TestTogglerFreezes:
    def test_freeze_window_bounds_oscillation(self, sim):
        config = TogglerConfig(
            tick_ns=msecs(1), epsilon=0.0, min_samples=1,
            settle_ticks=0, freeze_ticks=5,
        )
        count = [0]

        def rising_latency():
            # Each tick the running mode looks worse than everything
            # before it — an estimator gone unstable.  Without the
            # freeze window, a greedy controller would flip every tick.
            count[0] += 1
            return PerfSample(
                latency_ns=100.0 * count[0], throughput_per_sec=1000.0,
            )

        toggler = run_toggler(sim, rising_latency, config, ticks=60)
        assert toggler.toggles >= 3
        assert toggler.freeze_holds > 0
        assert min_toggle_gap_ticks(toggler) >= config.freeze_ticks

    def test_loss_episode_freezes_mode_and_ewmas(self, sim):
        config = TogglerConfig(
            tick_ns=msecs(1), epsilon=0.0, min_samples=1,
            settle_ticks=0, loss_freeze_ticks=3,
        )
        tick = [0]

        def signal():
            tick[0] += 1
            return tick[0] == 5  # one loss burst at the fifth tick

        toggler = run_toggler(
            sim,
            lambda: PerfSample(latency_ns=100.0, throughput_per_sec=1000.0),
            config,
            loss_signal_fn=signal,
            ticks=10,
        )
        assert toggler.loss_episodes == 1
        assert toggler.frozen_ticks == 3
        # Frozen ticks fold nothing into the EWMAs...
        folded = sum(
            toggler._stats[mode].samples for mode in (False, True)
        )
        assert folded == len(toggler.history) - toggler.frozen_ticks
        # ...and hold the mode for the whole episode.
        episode = [record.mode for record in toggler.history[3:7]]
        assert len(set(episode)) == 1


class TestZeroCostWhenOff:
    def test_no_plan_builds_no_fault_machinery(self):
        bed = build_testbed(BenchConfig(rate_per_sec=1000.0))
        assert bed.faults is None
        assert bed.client_host.nic._egress._fault_hook is None
        assert bed.server_host.nic._egress._fault_hook is None
        assert bed.client_host.nic._rx_fault_hook is None
        assert bed.client_exchange.fault_hook is None
        assert bed.client_exchange.max_gap_ns is None
        assert not any(
            name.startswith("faults.") for name in bed.rng._streams
        )

    def test_plan_builds_the_full_stack(self):
        config = BenchConfig(
            rate_per_sec=1000.0, fault_plan=named_plan("mixed"),
        )
        bed = build_testbed(config)
        assert bed.faults is not None
        assert bed.client_host.nic._egress._fault_hook is not None
        assert bed.client_exchange.fault_hook is not None
        assert bed.client_exchange.max_gap_ns is not None


@pytest.mark.slow
class TestChaosDeterminism:
    def test_same_seed_and_plan_replays_exactly(self):
        config = BenchConfig(
            rate_per_sec=8_000.0,
            warmup_ns=msecs(10),
            measure_ns=msecs(30),
            seed=5,
            min_rto_ns=msecs(5),
            fault_plan=named_plan("mixed").scaled(0.5),
        )

        def one_run():
            holder = {}
            result = run_benchmark(
                config, tweak=lambda bed: holder.update(bed=bed),
            )
            return (
                result.achieved_rate,
                result.latency.mean_ns,
                result.latency.p99_ns,
                holder["bed"].faults.summary(),
            )

        assert one_run() == one_run()
