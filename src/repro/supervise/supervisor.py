"""The campaign supervisor: run pure jobs to completion, survive anything.

:class:`Supervisor` executes a list of independent jobs (pure functions
of picklable payloads) and returns an index-aligned list of typed
outcomes — :class:`~repro.supervise.outcome.JobSuccess` or
:class:`~repro.supervise.outcome.JobFailure` — instead of letting one
bad job sink the campaign.  Per job it implements the supervision state
machine::

    PENDING ──submit──▶ RUNNING ──ok──▶ DONE (checkpointed)
       ▲                   │
       │                   ├─ raised ──▶ failed(error):   retry w/ backoff
       │                   ├─ deadline ─▶ failed(timeout): kill pool, retry
       │                   └─ pool died ▶ failed(crash):   fresh pool, retry
       │                   │
       └──── backoff ◀─────┴─ attempts left?  no ──▶ QUARANTINED

Key properties:

- **determinism** — jobs are pure, so retries, backoff, pool restarts
  and checkpoint merges cannot change a single result byte; supervision
  only decides *whether* each result exists.
- **attribution** — a timeout is attributed exactly (per-job deadline);
  a worker crash is only attributable to the in-flight set, so crash
  strikes get extra slack (see
  :class:`~repro.supervise.policy.SupervisePolicy`) and innocent
  bystanders of a pool kill are requeued penalty-free.
- **poison fail-fast** — a :class:`~repro.errors.WatchdogError` (budget
  blowout) is deterministic; the job is quarantined on first strike
  instead of burning ``max_attempts`` full budgets.
- **durability** — with a
  :class:`~repro.supervise.checkpoint.CheckpointStore` attached, every
  completed job is flushed to disk as it lands and already-stored jobs
  are skipped on entry, so an interrupted campaign resumes where it
  died.

The executor is :class:`concurrent.futures.ProcessPoolExecutor`: a dead
worker surfaces promptly as a broken pool (no timeout wait), and the
pool is rebuilt fresh for the survivors.  Hung workers have no such
signal — they are caught by the per-job wall-clock deadline and removed
by killing the pool's processes outright.  Under a :class:`PoolLease`
each worker is its own one-process pool (a *slot*), job ``i`` is pinned
to slot ``i mod workers``, and a crash or hang retires only the slot it
happened in.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import Callable, Sequence

from repro.errors import WatchdogError
from repro.obs.log import NULL_LOG
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.supervise.checkpoint import CheckpointStore, derive_keys
from repro.supervise.outcome import (
    KIND_CRASH,
    KIND_DIAGNOSIS,
    KIND_ERROR,
    KIND_TIMEOUT,
    JobFailure,
    JobOutcome,
    JobSuccess,
)
from repro.supervise.policy import SupervisePolicy


def _guarded(fn: Callable, payload):
    """Worker entry point: never lets a job exception escape the worker.

    Returns ``("ok", result)`` or ``("error", type_name, message,
    traceback_text, poison)`` — a crashed *process* is the only failure
    that does not come back through this envelope.
    """
    try:
        return ("ok", fn(payload))
    except Exception as exc:
        return (
            "error",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
            isinstance(exc, WatchdogError),
        )


class PoolLease:
    """Pinned worker slots shared by consecutive supervised runs.

    A :class:`Supervisor` normally builds a fresh
    :class:`~concurrent.futures.ProcessPoolExecutor` per :meth:`run`
    and tears it down on exit.  That is correct but wasteful for
    lock-stepped protocols (the windowed cross-shard engine issues one
    supervised run *per window*) where worker processes also hold warm
    module-level state.  A lease keeps one single-process executor per
    *slot* alive across runs, and a leased supervisor sends job ``i`` of
    every run to slot ``i mod workers`` — so job ``i`` of consecutive
    runs always executes in the same worker process:

    - :meth:`executor` hands a slot's pool to a supervisor, creating it
      on demand (slots are added as runs need them, never dropped);
    - :meth:`discard` kills one slot's pool outright — the supervisor
      calls this when that slot crashes or hangs, so a poisoned worker
      is never reused while the other slots keep theirs;
    - :meth:`close` shuts every slot down at end of session.

    Correctness never depends on the lease: a discarded slot only costs
    warm state, not result bytes (a windowed-engine job that finds its
    state gone answers *cold* and is re-sent with its full history; see
    :mod:`repro.sim.sync`).
    """

    def __init__(self):
        self._slots: dict[int, ProcessPoolExecutor] = {}

    def executor(self, ctx, slot: int) -> ProcessPoolExecutor:
        """Slot ``slot``'s one-worker pool, built on demand."""
        executor = self._slots.get(slot)
        if executor is None:
            executor = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
            self._slots[slot] = executor
        return executor

    def owns(self, executor) -> bool:
        return any(executor is live for live in self._slots.values())

    def discard(self, executor) -> None:
        """Kill one slot's pool now (a hung or crashed worker included)."""
        for slot, live in list(self._slots.items()):
            if live is executor:
                del self._slots[slot]
                Supervisor._kill_executor(live)

    def close(self) -> None:
        for executor in self._slots.values():
            executor.shutdown(wait=False, cancel_futures=True)
        self._slots.clear()

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Job:
    """Mutable supervision state for one pending job."""

    __slots__ = (
        "index", "payload", "key", "label", "failures", "crash_strikes",
        "not_before",
    )

    def __init__(self, index: int, payload, key: str, label: str | None):
        self.index = index
        self.payload = payload
        self.key = key
        self.label = label
        self.failures = 0        # attributed failures: error / timeout
        self.crash_strikes = 0   # pool crashes while this job was in flight
        self.not_before = 0.0    # monotonic embargo from backoff

    @property
    def attempts(self) -> int:
        """Attempts consumed so far (for outcome reporting)."""
        return self.failures + self.crash_strikes


class Supervisor:
    """Run independent jobs under timeouts, retries, and checkpoints.

    ``workers`` is the resolved pool size (1 = in-process serial, where
    exceptions are still converted to typed outcomes and checkpoints
    still work, but hung-job detection is impossible and pool-level
    faults cannot occur).  ``tracer`` receives ``job.retry`` /
    ``job.timeout`` / ``job.quarantine`` records; :attr:`metrics` counts
    the same events for the ``repro-metrics-v1`` catalog.

    ``diagnosis`` is a :class:`repro.diagnose.DiagnosisHook` already
    attached to the campaign tracer: each completed job's trace segment
    is scored, recorded as ``diagnose.*`` metrics and a
    ``diagnosis.verdict`` trace record, and — when the hook was built
    with ``quarantine=True`` — a pathological verdict quarantines the
    job (kind ``diagnosis``) instead of completing it.  Diagnosis needs
    the trace stream, which only exists in-process, so it pairs with
    ``workers=1`` + a tracer (the configuration tracing already forces).

    ``remedy`` is a :class:`repro.remedy.RemedyEngine`: completed jobs
    that drew diagnosis findings and every quarantine are forwarded to
    it so remediation playbooks can probe and classify the root cause.
    Remediation observes only — it never changes an outcome, the
    checkpoint store, or the campaign's trace-derived diagnosis.
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: str | None = None,
        policy: SupervisePolicy | None = None,
        checkpoint: CheckpointStore | None = None,
        tracer=None,
        log=None,
        diagnosis=None,
        remedy=None,
        pool: "PoolLease | None" = None,
    ):
        self.workers = max(1, workers)
        self.start_method = start_method
        self.pool = pool
        self.policy = policy if policy is not None else SupervisePolicy()
        self.policy.validate()
        self.checkpoint = checkpoint
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.log = log if log is not None else NULL_LOG
        self.metrics = MetricsRegistry()
        self.diagnosis = diagnosis
        self.remedy = remedy
        if remedy is not None:
            remedy.bind_runtime(
                tracer=self.tracer, metrics=self.metrics, log=self.log,
            )

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        keys: Sequence[str] | None = None,
        labels: Sequence[str] | None = None,
    ) -> list[JobOutcome]:
        """Run ``fn`` over ``payloads``; outcomes align with ``payloads``.

        ``keys`` overrides the content digest per job (same length as
        ``payloads``); ``labels`` attaches human-readable hints used in
        checkpoint records and progress lines.  A payload with no stable
        content digest (a closure) gets a positional volatile key when
        there is no checkpoint to corrupt; with a checkpoint attached it
        raises :class:`~repro.errors.SuperviseError` instead.

        Jobs sharing one content key are *deduplicated*: the first
        occurrence runs, the rest reuse its outcome (jobs are pure, so
        the duplicates' results are byte-identical by construction).
        Volatile keys carry no content identity and are never deduped.
        """
        n = len(payloads)
        if keys is None:
            keys = derive_keys(payloads, durable=self.checkpoint is not None)
        if labels is None:
            labels = [None] * n
        outcomes: list[JobOutcome | None] = [None] * n
        self.metrics.counter("supervise.jobs").inc(n)

        jobs: deque[_Job] = deque()
        hits = 0
        primaries: dict[str, int] = {}
        duplicates: list[tuple[int, str, int]] = []  # (index, key, primary)
        for index, (payload, key, label) in enumerate(
            zip(payloads, keys, labels)
        ):
            # Dedupe before the store lookup so a duplicate neither
            # re-reads the store nor skews cache hit/miss accounting.
            primary = primaries.get(key)
            if primary is not None:
                duplicates.append((index, key, primary))
                continue
            # `is not None`, not truthiness: an *empty* store has
            # __len__ == 0 and must still be consulted so cache
            # accounting sees the miss.
            stored = (
                self.checkpoint.get(key)
                if self.checkpoint is not None else None
            )
            if stored is not None:
                result, attempts = stored
                outcomes[index] = JobSuccess(
                    index=index, key=key, result=result,
                    attempts=attempts, from_checkpoint=True,
                )
                hits += 1
                continue
            if not key.startswith("volatile-"):
                primaries[key] = index
            jobs.append(_Job(index, payload, key, label))
        if hits:
            self.metrics.counter("supervise.checkpoint_hits").inc(hits)
            self.log.info(
                f"resume: skipped {hits}/{n} jobs already checkpointed"
            )
        if duplicates:
            self.metrics.counter("supervise.deduped").inc(len(duplicates))
            self.log.info(
                f"dedup: {len(duplicates)}/{n} jobs share another job's "
                f"content key; running each key once"
            )

        if jobs:
            if min(self.workers, len(jobs)) <= 1:
                self._run_serial(fn, jobs, outcomes)
            else:
                self._run_pooled(fn, jobs, outcomes)

        # Mirror each primary's outcome into its duplicates' slots (the
        # supervisor fills every primary slot before returning, so the
        # lookup cannot miss).
        for index, key, primary in duplicates:
            outcome = outcomes[primary]
            if outcome.ok:
                outcomes[index] = JobSuccess(
                    index=index, key=key, result=outcome.result,
                    attempts=outcome.attempts,
                    from_checkpoint=outcome.from_checkpoint,
                )
            else:
                outcomes[index] = JobFailure(
                    index=index, key=key, kind=outcome.kind,
                    message=outcome.message, attempts=outcome.attempts,
                    error_type=outcome.error_type,
                    traceback=outcome.traceback,
                )
        return outcomes  # type: ignore[return-value]  # every slot filled

    # ------------------------------------------------------------------
    # Shared bookkeeping.
    # ------------------------------------------------------------------

    def _complete(self, outcomes, job: _Job, result) -> None:
        if self.diagnosis is not None and not self._diagnose(
            outcomes, job, result
        ):
            return  # pathological verdict escalated to quarantine
        outcome = JobSuccess(
            index=job.index, key=job.key, result=result,
            attempts=job.attempts + 1,
        )
        outcomes[job.index] = outcome
        if self.checkpoint is not None:
            self.checkpoint.record_success(
                job.key, result, attempts=outcome.attempts, label=job.label,
            )

    def _diagnose(self, outcomes, job: _Job, result) -> bool:
        """Score the job's trace segment; False quarantines the job.

        Runs before the success is recorded so a quarantined-by-verdict
        job is never checkpointed (a later resume re-runs and re-judges
        it).  A flagged-but-not-quarantined job is handed to the remedy
        engine (with its result, for digest comparison probes).
        """
        verdict = self.diagnosis.job_completed(job.index, job.key)
        self.metrics.gauge("diagnose.connections").set(verdict.connections)
        self.metrics.counter("diagnose.findings").inc(verdict.findings)
        if verdict.findings:
            self.metrics.counter("diagnose.flagged_jobs").inc()
            self.log.info(
                f"diagnosis: job {job.index} ({job.key[:12]}): "
                f"{verdict.describe()}"
            )
        if self.tracer.enabled:
            self.tracer.diagnosis_verdict(
                job.index, job.key, verdict.connections,
                verdict.findings, list(verdict.classes),
                verdict.pathological,
            )
        if verdict.pathological and self.diagnosis.quarantine:
            self.metrics.counter("diagnose.quarantined").inc()
            self._quarantine(
                outcomes, job, KIND_DIAGNOSIS, None,
                f"diagnosis flagged pathological behavior: "
                f"{', '.join(verdict.classes)}", None,
            )
            return False
        if verdict.findings and self.remedy is not None:
            self.remedy.job_flagged(
                job.index, job.key, job.label,
                verdict.findings, verdict.classes, result,
            )
        return True

    def _quarantine(
        self, outcomes, job: _Job, kind: str,
        error_type: str | None, message: str, tb: str | None,
    ) -> None:
        failure = JobFailure(
            index=job.index, key=job.key, kind=kind,
            message=message, attempts=job.attempts,
            error_type=error_type, traceback=tb,
        )
        outcomes[job.index] = failure
        self.metrics.counter("supervise.quarantined").inc()
        if self.tracer.enabled:
            self.tracer.job_quarantine(
                job.key, job.index, job.attempts, kind,
                error=error_type, message=message,
            )
        if self.checkpoint is not None:
            self.checkpoint.record_failure(job.key, failure)
        self.log.info(f"quarantined: {failure.describe()}")
        if self.remedy is not None:
            self.remedy.job_quarantined(
                job.index, job.key, job.label, kind, error_type, message,
            )

    def _schedule_retry(self, job: _Job, kind: str) -> None:
        """Embargo a failed job for its deterministic backoff window."""
        backoff = self.policy.backoff_s(job.failures + job.crash_strikes)
        job.not_before = time.monotonic() + backoff
        self.metrics.counter("supervise.retries").inc()
        if self.tracer.enabled:
            self.tracer.job_retry(
                job.key, job.index, job.attempts, kind, backoff_s=backoff,
            )

    def _failed(
        self, outcomes, pending: deque, job: _Job, kind: str,
        error_type: str | None, message: str, tb: str | None,
        poison: bool,
    ) -> None:
        """One attributed failure: retry with backoff, or quarantine."""
        job.failures += 1
        if kind == KIND_TIMEOUT:
            self.metrics.counter("supervise.timeouts").inc()
            if self.tracer.enabled:
                self.tracer.job_timeout(
                    job.key, job.index, job.attempts,
                    timeout_s=self.policy.job_timeout_s or 0.0,
                )
        else:
            self.metrics.counter("supervise.errors").inc()
        if poison or job.failures >= self.policy.max_attempts:
            self._quarantine(outcomes, job, kind, error_type, message, tb)
        else:
            self._schedule_retry(job, kind)
            pending.append(job)

    def _crashed(self, outcomes, pending: deque, job: _Job) -> None:
        """The pool died while this job was in flight."""
        job.crash_strikes += 1
        self.metrics.counter("supervise.crashes").inc()
        if job.crash_strikes >= self.policy.max_crash_strikes:
            self._quarantine(
                outcomes, job, KIND_CRASH, None,
                "worker process died repeatedly under this job", None,
            )
        else:
            self._schedule_retry(job, KIND_CRASH)
            pending.append(job)

    # ------------------------------------------------------------------
    # Serial execution (workers == 1).
    # ------------------------------------------------------------------

    def _run_serial(self, fn, jobs: deque, outcomes) -> None:
        pending = deque(jobs)
        while pending:
            job = pending.popleft()
            delay = job.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            envelope = _guarded(fn, job.payload)
            if envelope[0] == "ok":
                self._complete(outcomes, job, envelope[1])
            else:
                _, error_type, message, tb, poison = envelope
                self._failed(
                    outcomes, pending, job, KIND_ERROR,
                    error_type, message, tb, poison,
                )

    # ------------------------------------------------------------------
    # Pooled execution (workers > 1).
    # ------------------------------------------------------------------

    def _slot(self, job: _Job) -> int:
        """A leased run pins job ``i`` to slot ``i mod workers``; an
        unleased run shares one pool, slot 0."""
        return job.index % self.workers if self.pool is not None else 0

    def _new_executor(self, ctx, workers: int, slot: int):
        if self.pool is not None:
            return self.pool.executor(ctx, slot)
        return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

    def _discard_executor(self, executor: ProcessPoolExecutor) -> None:
        """Retire a broken/hung pool, through the lease when it owns it."""
        if self.pool is not None and self.pool.owns(executor):
            self.pool.discard(executor)
        else:
            self._kill_executor(executor)

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, including hung workers."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def _pop_eligible(self, pending: deque, busy=()) -> _Job | None:
        """The first job whose backoff embargo has expired and whose
        slot is not in ``busy``."""
        now = time.monotonic()
        for _ in range(len(pending)):
            job = pending.popleft()
            if job.not_before <= now and self._slot(job) not in busy:
                return job
            pending.append(job)
        return None

    def _run_pooled(self, fn, jobs: deque, outcomes) -> None:
        policy = self.policy
        workers = min(self.workers, len(jobs))
        ctx = multiprocessing.get_context(self.start_method)
        pending: deque[_Job] = deque(jobs)
        executors: dict = {}  # slot -> its live pool, built on demand
        # future -> (job, wall-clock deadline or None, owning executor)
        inflight: dict = {}
        try:
            while pending or inflight:
                while pending and len(inflight) < workers:
                    # A leased slot is one worker: one job in flight each.
                    busy = (
                        {self._slot(job) for job, _, _ in inflight.values()}
                        if self.pool is not None else ()
                    )
                    job = self._pop_eligible(pending, busy)
                    if job is None:
                        break
                    slot = self._slot(job)
                    executor = executors.get(slot)
                    if executor is None:
                        executor = self._new_executor(ctx, workers, slot)
                        executors[slot] = executor
                    future = executor.submit(_guarded, fn, job.payload)
                    deadline = (
                        time.monotonic() + policy.job_timeout_s
                        if policy.job_timeout_s is not None else None
                    )
                    inflight[future] = (job, deadline, executor)

                if not inflight:
                    time.sleep(policy.poll_interval_s)
                    continue

                done, _ = futures_wait(
                    set(inflight),
                    timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )

                broken = set()
                for future in done:
                    job, _, owner = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except Exception:
                        # The owning pool died under this job.  Futures
                        # from an already-replaced pool don't force
                        # another rebuild.
                        self._crashed(outcomes, pending, job)
                        if owner in executors.values():
                            broken.add(owner)
                        continue
                    if envelope[0] == "ok":
                        self._complete(outcomes, job, envelope[1])
                    else:
                        _, error_type, message, tb, poison = envelope
                        self._failed(
                            outcomes, pending, job, KIND_ERROR,
                            error_type, message, tb, poison,
                        )

                if broken:
                    self.metrics.counter("supervise.pool_restarts").inc(
                        len(broken)
                    )
                    self.log.info(
                        "worker pool died; restarting on a fresh pool"
                    )
                    self._retire(executors, broken)

                # Hung-worker detection: any in-flight job past its
                # deadline takes a timeout strike; the pool that ran it
                # is killed (there is no way to stop one worker), and
                # innocent in-flight jobs are requeued penalty-free.
                now = time.monotonic()
                hung = [
                    future
                    for future, (_, deadline, _owner) in inflight.items()
                    if deadline is not None and now > deadline
                ]
                if hung:
                    killed = set()
                    for future in hung:
                        job, _, owner = inflight.pop(future)
                        killed.add(owner)
                        self._failed(
                            outcomes, pending, job, KIND_TIMEOUT, None,
                            f"exceeded the {policy.job_timeout_s:.3g}s "
                            f"wall-clock budget", None, False,
                        )
                    for future in list(inflight):
                        job, _, owner = inflight[future]
                        if owner in killed:
                            del inflight[future]
                            job.not_before = 0.0
                            pending.appendleft(job)
                    self.metrics.counter("supervise.pool_restarts").inc(
                        len(killed)
                    )
                    self._retire(executors, killed)
        finally:
            # Leased slots outlive the run by design; the lease owner
            # closes them.  An unleased pool is torn down here.
            if self.pool is None:
                for executor in executors.values():
                    executor.shutdown(wait=False, cancel_futures=True)

    def _retire(self, executors: dict, dead: set) -> None:
        """Kill ``dead`` pools; their slots get fresh ones on demand."""
        for owner in dead:
            self._discard_executor(owner)
        for slot, executor in list(executors.items()):
            if executor in dead:
                del executors[slot]
