"""Supervisor behavior: retries, quarantine, resume, trace records."""

from __future__ import annotations

import pytest

from repro.errors import CampaignError, SuperviseError, WatchdogError
from repro.obs.schema import validate_stream
from repro.obs.sinks import ListSink
from repro.obs.tracer import Tracer
from repro.supervise import (
    KIND_ERROR,
    CheckpointStore,
    JobFailure,
    JobSuccess,
    SupervisePolicy,
    Supervisor,
    split_outcomes,
)

#: Backoff-free policy so retry tests don't sleep.
FAST = SupervisePolicy(backoff_base_s=0.0, backoff_max_s=0.0)


def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"no job should run, got {x!r}")


def _poison(x):
    raise WatchdogError("event budget exhausted")


def _odd_raises(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def _fail_until_marker(payload):
    """Fail until a marker file exists (created on the first attempt)."""
    marker, x = payload
    if not marker.exists():
        marker.write_text("seen")
        raise OSError("transient failure")
    return x * 10


class TestSerialSupervision:
    def test_results_in_submission_order(self):
        outcomes = Supervisor(policy=FAST).run(_square, [3, 1, 2])
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.result for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.attempts == 1 for o in outcomes)

    def test_exception_becomes_typed_failure_no_holes(self):
        policy = SupervisePolicy(max_attempts=1)
        outcomes = Supervisor(policy=policy).run(_odd_raises, [2, 3, 4])
        assert [o.ok for o in outcomes] == [True, False, True]
        failure = outcomes[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == KIND_ERROR
        assert failure.error_type == "ValueError"
        assert "odd input 3" in failure.message
        assert "ValueError" in failure.traceback
        successes, failures = split_outcomes(outcomes)
        assert len(successes) == 2 and len(failures) == 1

    def test_transient_failure_retried_to_success(self, tmp_path):
        supervisor = Supervisor(policy=FAST)
        outcomes = supervisor.run(
            _fail_until_marker, [(tmp_path / "marker", 7)]
        )
        assert outcomes[0].ok
        assert outcomes[0].result == 70
        assert outcomes[0].attempts == 2
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.errors"] == 1
        assert counters["supervise.retries"] == 1

    def test_quarantine_after_max_attempts(self):
        policy = SupervisePolicy(
            max_attempts=2, backoff_base_s=0.0, backoff_max_s=0.0
        )
        supervisor = Supervisor(policy=policy)
        outcomes = supervisor.run(_odd_raises, [5])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        counters = supervisor.metrics.snapshot()["counters"]
        assert counters["supervise.errors"] == 2
        assert counters["supervise.quarantined"] == 1

    def test_watchdog_poison_fails_fast(self):
        supervisor = Supervisor(policy=FAST)  # max_attempts=3
        outcomes = supervisor.run(_poison, [1])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1       # no retries for poison
        assert outcomes[0].error_type == "WatchdogError"


class TestResume:
    def test_resume_skips_checkpointed_jobs(self, tmp_path):
        first = Supervisor(policy=FAST, checkpoint=CheckpointStore(tmp_path))
        keys = ["ka", "kb", "kc"]
        original = first.run(_square, [2, 3, 4], keys=keys)
        first.checkpoint.close()
        assert all(o.ok and not o.from_checkpoint for o in original)

        # _explode proves nothing runs: every job comes from the store.
        second = Supervisor(policy=FAST, checkpoint=CheckpointStore(tmp_path))
        resumed = second.run(_explode, [2, 3, 4], keys=keys)
        assert all(isinstance(o, JobSuccess) for o in resumed)
        assert all(o.from_checkpoint for o in resumed)
        assert [o.result for o in resumed] == [o.result for o in original]
        counters = second.metrics.snapshot()["counters"]
        assert counters["supervise.checkpoint_hits"] == 3

    def test_partial_resume_runs_only_the_gap(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.record_success("ka", 4)
        store.close()
        supervisor = Supervisor(
            policy=FAST, checkpoint=CheckpointStore(tmp_path)
        )
        outcomes = supervisor.run(_square, [2, 5], keys=["ka", "kb"])
        assert outcomes[0].from_checkpoint
        assert not outcomes[1].from_checkpoint
        assert [o.result for o in outcomes] == [4, 25]

    def test_closures_with_checkpoint_rejected(self, tmp_path):
        supervisor = Supervisor(
            policy=FAST, checkpoint=CheckpointStore(tmp_path)
        )
        with pytest.raises(SuperviseError):
            supervisor.run(_square, [lambda: None])


class TestTraceRecords:
    def test_retry_and_quarantine_records_validate(self):
        tracer = Tracer(sink=ListSink(), label="supervise-test")
        policy = SupervisePolicy(
            max_attempts=2, backoff_base_s=0.0, backoff_max_s=0.0
        )
        Supervisor(policy=policy, tracer=tracer).run(_odd_raises, [3])
        types = [r["type"] for r in tracer.records]
        assert "job.retry" in types
        assert "job.quarantine" in types
        validate_stream(tracer.records)

        retry = next(r for r in tracer.records if r["type"] == "job.retry")
        assert retry["kind"] == KIND_ERROR
        assert retry["backoff_s"] == 0.0
        quarantine = next(
            r for r in tracer.records if r["type"] == "job.quarantine"
        )
        assert quarantine["error"] == "ValueError"
        assert quarantine["attempts"] == 2


class TestStrictEntryPoints:
    def test_campaign_error_carries_outcomes(self):
        from repro.parallel import ParallelRunner, _require_all_ok

        runner = ParallelRunner(workers=1, policy=SupervisePolicy(max_attempts=1))
        with pytest.raises(CampaignError) as excinfo:
            _require_all_ok(runner.map_outcomes(_odd_raises, [2, 3, 4]))
        error = excinfo.value
        assert "1/3 campaign jobs quarantined" in str(error)
        assert [o.ok for o in error.outcomes] == [True, False, True]

    def test_map_outcomes_salvages_partial_results(self):
        from repro.parallel import ParallelRunner

        runner = ParallelRunner(workers=1, policy=SupervisePolicy(max_attempts=1))
        outcomes = runner.map_outcomes(_odd_raises, [2, 3, 4])
        successes, failures = split_outcomes(outcomes)
        assert [s.result for s in successes] == [2, 4]
        assert failures[0].index == 1
