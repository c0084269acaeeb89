"""The Tracer: header discipline, typed helpers, the disabled path."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import SCHEMA, validate_stream
from repro.obs.sinks import ListSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.core.qstate import QueueSnapshot, TripleSnapshot


def _tracer():
    return Tracer(sink=ListSink(), clock=lambda: 42, label="test")


class TestLifecycle:
    def test_header_written_lazily(self):
        tracer = _tracer()
        assert tracer.records == []
        tracer.log_message("hello")
        assert tracer.records[0]["type"] == "trace.header"
        assert tracer.records[0]["schema"] == SCHEMA
        assert tracer.records[0]["label"] == "test"
        assert tracer.emitted == 2

    def test_header_written_once(self):
        tracer = _tracer()
        tracer.log_message("a")
        tracer.log_message("b")
        headers = [r for r in tracer.records if r["type"] == "trace.header"]
        assert len(headers) == 1

    def test_clock_stamps_records(self):
        tracer = _tracer()
        tracer.log_message("x")
        assert all(record["t"] == 42 for record in tracer.records)

    def test_bind_clock_accepts_sim_like(self):
        class FakeSim:
            now = 7

        tracer = Tracer(sink=ListSink())
        tracer.bind_clock(FakeSim())
        tracer.log_message("x")
        assert tracer.records[-1]["t"] == 7

    def test_unbound_clock_stamps_zero(self):
        tracer = Tracer(sink=ListSink())
        tracer.log_message("x")
        assert tracer.records[-1]["t"] == 0


class TestDisabled:
    def test_null_tracer_is_inert(self):
        before = len(NULL_TRACER.records)
        NULL_TRACER.log_message("nope")
        NULL_TRACER.emit("tcp.event", "x", event="tx", detail=None)
        assert len(NULL_TRACER.records) == before
        assert not NULL_TRACER.enabled

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(sink=ListSink(), enabled=False)
        tracer.log_message("nope")
        tracer.metrics_snapshot({"schema": "repro-metrics-v1"})
        assert tracer.records == []
        assert tracer.emitted == 0


class TestTypedHelpers:
    def test_every_helper_conforms_to_schema(self):
        tracer = _tracer()
        snap = QueueSnapshot(time=1, total=2, integral=3)
        triple = TripleSnapshot(unacked=snap, unread=snap, ackdelay=snap)

        class Delays:
            unacked = 1.0
            unread = 2.0
            ackdelay = None

        class Sample:
            interval_ns = 1000
            local = Delays()
            remote = None
            latency_ns = 3.0
            throughput_per_sec = 10.0
            complete = False

        tracer.queue_sample("client", triple)
        tracer.exchange_send("client", 36, demand=False, hint=True)
        tracer.exchange_recv("client", "accepted", triple)
        tracer.estimator_sample("client", Sample(), clamped=None)
        tracer.estimator_reject("client", "stale", staleness_ns=5)
        tracer.toggler_decision(
            "toggler", tick=1, mode=True, prev_mode=False, explored=True,
            phase="measure", sample_latency_ns=1.0,
            ewma={"nagle_off": {}, "nagle_on": {}},
        )
        tracer.fault_verdict("link.forward", "link", "loss-drop")
        tracer.tcp_event("client", "tx", detail={"bytes": 100})
        tracer.log_message("done")
        tracer.metrics_snapshot(MetricsRegistry().snapshot())
        assert validate_stream(tracer.records) == []

    def test_toggled_derived_from_modes(self):
        tracer = _tracer()
        tracer.toggler_decision(
            "t", tick=1, mode=True, prev_mode=True, explored=False,
            phase="measure", sample_latency_ns=None, ewma={},
        )
        assert tracer.records[-1]["toggled"] is False
