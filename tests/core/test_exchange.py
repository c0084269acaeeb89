"""Tests for the wire metadata exchange (§3.2 format, §5 cadence)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.exchange import (
    OPTION_E2E,
    OPTION_HINT,
    MetadataExchange,
    WirePeerState,
    WireQueueState,
    WireScale,
    _CounterUnwrapper,
    _QueueUnwrapper,
)
from repro.core.qstate import QueueSnapshot, QueueState, TripleSnapshot
from repro.errors import EstimationError


class TestWireEncoding:
    def test_queue_state_is_12_bytes(self):
        wire = WireQueueState(1, 2, 3)
        assert len(wire.encode()) == 12
        assert WireQueueState.WIRE_BYTES == 12

    def test_peer_state_is_36_bytes(self):
        """The paper: 36 bytes per exchange (3 queues x 3 counters x 4B)."""
        state = WirePeerState(
            WireQueueState(1, 2, 3),
            WireQueueState(4, 5, 6),
            WireQueueState(7, 8, 9),
        )
        assert len(state.encode()) == 36
        assert WirePeerState.WIRE_BYTES == 36

    def test_roundtrip(self):
        state = WirePeerState(
            WireQueueState(10, 20, 30),
            WireQueueState(40, 50, 60),
            WireQueueState(70, 80, 90),
        )
        decoded = WirePeerState.decode(state.encode())
        assert decoded.unacked == state.unacked
        assert decoded.unread == state.unread
        assert decoded.ackdelay == state.ackdelay

    def test_decode_wrong_length_rejected(self):
        with pytest.raises(EstimationError):
            WireQueueState.decode(b"short")
        with pytest.raises(EstimationError):
            WirePeerState.decode(b"\x00" * 35)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_any_counters(self, t, total, integral):
        wire = WireQueueState(t, total, integral)
        assert WireQueueState.decode(wire.encode()) == wire


class TestCounterUnwrapping:
    def test_monotone_without_wrap(self):
        unwrapper = _CounterUnwrapper()
        assert unwrapper.update(100) == 100
        assert unwrapper.update(250) == 250

    def test_wraparound(self):
        unwrapper = _CounterUnwrapper()
        unwrapper.update(2**32 - 10)
        assert unwrapper.update(5) == 2**32 - 10 + 15

    @given(st.lists(st.integers(0, 2**31), min_size=1, max_size=50))
    def test_unwrap_recovers_cumulative_sums(self, increments):
        """Feeding wrapped cumulative sums recovers the true values as
        long as each step is below 2^32."""
        unwrapper = _CounterUnwrapper()
        true = 0
        unwrapper.update(0)
        for inc in increments:
            true += inc
            assert unwrapper.update(true % (2**32)) == true

    def test_blackout_across_wrap_is_a_huge_forward_jump(self):
        """The raw unwrapper cannot detect a blackout.  A gap of more
        than 2^31 ticks still unwraps to the true (huge) forward delta,
        and a gap past the full modulus aliases into a small step — the
        exchange-level ``max_gap_ns`` check plus rebaseline exists
        precisely because modular unwrapping alone cannot tell."""
        unwrapper = _CounterUnwrapper()
        unwrapper.update(1_000)
        gap = 2**31 + 12_345
        assert unwrapper.preview((1_000 + gap) % 2**32) == 1_000 + gap
        # Beyond the modulus the delta aliases: indistinguishable from
        # a small step, so the committed value would be silently wrong.
        assert unwrapper.preview((1_000 + 2**32 + 7) % 2**32) == 1_000 + 7


class TestQueueUnwrapper:
    def test_scaling_roundtrip_within_resolution(self):
        scale = WireScale(time_unit_ns=1_000, integral_shift=10)
        snap = QueueSnapshot(time=5_000_000, total=1234,
                             integral=700_000_000)
        wire = WireQueueState(*scale.pack_snapshot(snap))
        unwrapped = _QueueUnwrapper(scale).update(wire)
        assert unwrapped.time == snap.time
        assert unwrapped.total == snap.total
        # Integral resolution: time_unit * 2^shift.
        assert abs(unwrapped.integral - snap.integral) < 1_000 * 1024


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestMetadataExchange:
    def _make(self, sim_factory, period_ns=1_000_000):
        from repro.sim.loop import Simulator

        sim = Simulator()

        class FakeSocket:
            def __init__(self, clock):
                self.qs_unacked = QueueState(clock)
                self.qs_unread = QueueState(clock)
                self.qs_ackdelay = QueueState(clock)
                self.exchange = None

        sock = FakeSocket(lambda: sim.now)
        exchange = MetadataExchange(sim, sock, period_ns=period_ns)
        return sim, sock, exchange

    def test_attaches_option_when_due(self):
        sim, sock, exchange = self._make(None)

        class Seg:
            options = {}

        seg = Seg()
        seg.options = {}
        exchange.on_transmit(seg)
        assert OPTION_E2E in seg.options
        assert exchange.states_sent == 1
        assert exchange.option_bytes_sent == 36

    def test_respects_period(self):
        sim, sock, exchange = self._make(None, period_ns=1_000)

        class Seg:
            def __init__(self):
                self.options = {}

        first, second = Seg(), Seg()
        exchange.on_transmit(first)
        exchange.on_transmit(second)
        assert OPTION_E2E in first.options
        assert OPTION_E2E not in second.options

    def test_on_demand_overrides_period(self):
        sim, sock, exchange = self._make(None, period_ns=10**12)

        class Seg:
            def __init__(self):
                self.options = {}

        first, second, third = Seg(), Seg(), Seg()
        exchange.on_transmit(first)      # initial send
        exchange.on_transmit(second)     # suppressed by period
        exchange.request()
        exchange.on_transmit(third)      # demanded
        assert OPTION_E2E in first.options
        assert OPTION_E2E not in second.options
        assert OPTION_E2E in third.options

    def test_receive_shifts_prev_and_cur(self):
        sim, sock, exchange = self._make(None)
        sock.qs_unacked.track(3)
        state_a = WirePeerState.capture(sock, exchange.scale)
        sim.call_after(1000, lambda: None)
        sim.run()
        state_b = WirePeerState.capture(sock, exchange.scale)
        exchange.on_receive({OPTION_E2E: state_a})
        assert exchange.remote_cur is not None
        assert exchange.remote_prev is None
        exchange.on_receive({OPTION_E2E: state_b})
        assert isinstance(exchange.remote_prev, TripleSnapshot)
        assert exchange.remote_cur.unacked.time >= exchange.remote_prev.unacked.time

    def test_invalid_period_rejected(self):
        with pytest.raises(EstimationError):
            self._make(None, period_ns=0)

    def test_blackout_across_wrap_rebaselines(self):
        """A blackout longer than the wire-time modulus (> 2^32 us, so
        the 32-bit microsecond counter wraps mid-gap) must end in a
        rebaseline, not a committed interval spanning a bogus delta.

        With ``max_gap_ns`` set, every post-blackout state is rejected
        (the unwrapped dt is implausibly huge); after REBASELINE_AFTER
        consecutive rejections the state is adopted as a fresh baseline
        with ``remote_prev`` cleared, so no estimator interval ever
        spans the jump, and the next regular state yields a sane delta.
        """
        from repro.sim.loop import Simulator
        from repro.units import msecs

        sim = Simulator()

        class FakeSocket:
            def __init__(self):
                self.qs_unacked = QueueState(lambda: sim.now)
                self.qs_unread = QueueState(lambda: sim.now)
                self.qs_ackdelay = QueueState(lambda: sim.now)
                self.exchange = None

        sock = FakeSocket()
        exchange = MetadataExchange(
            sim, sock, period_ns=msecs(1), max_gap_ns=msecs(100)
        )

        def advance(delta_ns):
            sim.call_after(delta_ns, lambda: None)
            sim.run()

        def feed():
            exchange.on_receive(
                {OPTION_E2E: WirePeerState.capture(sock, exchange.scale)}
            )

        sock.qs_unacked.track(3)
        feed()                         # first state: baseline
        advance(msecs(1))
        feed()                         # healthy cadence: accepted
        assert exchange.states_rejected == 0
        assert exchange.remote_prev is not None
        healthy_cur = exchange.remote_cur

        # Blackout: > 2^32 us of silence, wrapping the wire time
        # counter.  5e9 us unwraps (mod 2^32) to ~7e8 us — far past
        # max_gap_ns either way.
        blackout_ns = 5 * 10**9 * 1_000
        assert blackout_ns // 1_000 > 2**32
        advance(blackout_ns)

        for expected_rejections in (1, 2):
            feed()
            assert exchange.states_rejected == expected_rejections
            assert exchange.rebaselines == 0
            # Rejections leave the retained pair untouched.
            assert exchange.remote_cur is healthy_cur
            advance(msecs(1))

        feed()                         # third strike: rebaseline
        assert exchange.states_rejected == 3
        assert exchange.rebaselines == 1
        assert exchange.remote_prev is None
        assert exchange.remote_cur is not healthy_cur

        rebaselined_cur = exchange.remote_cur
        advance(msecs(1))
        feed()                         # back to normal cadence
        assert exchange.states_rejected == 3
        assert exchange.remote_prev is rebaselined_cur
        dt = exchange.remote_cur.unacked.time - exchange.remote_prev.unacked.time
        assert dt == msecs(1)          # sane delta, not the bogus jump

    def test_hint_session_rides_along(self):
        from repro.core.hints import HintSession
        from repro.sim.loop import Simulator

        sim = Simulator()

        class FakeSocket:
            def __init__(self):
                self.qs_unacked = QueueState(lambda: sim.now)
                self.qs_unread = QueueState(lambda: sim.now)
                self.qs_ackdelay = QueueState(lambda: sim.now)
                self.exchange = None

        sock = FakeSocket()
        hints = HintSession(lambda: sim.now)
        exchange = MetadataExchange(sim, sock, period_ns=1000, hint_session=hints)

        class Seg:
            def __init__(self):
                self.options = {}

        seg = Seg()
        hints.create(2)
        exchange.on_transmit(seg)
        assert OPTION_HINT in seg.options
        assert exchange.option_bytes_sent == 36 + 12
