"""Campaign-level parallelism: supervised fan-out over worker processes.

Every figure in the reproduction is a sweep of independent deterministic
simulations — rates x seeds x configurations — yet each simulation is
single-threaded.  :class:`ParallelRunner` fans a campaign of jobs (a
module-level function over picklable items) across a worker pool and
merges the results back **in submission order**, so a parallel campaign
is byte-identical to the serial one: each job's output depends only on
its payload (all randomness flows through the config's seed), and the
merge order is deterministic regardless of which worker finishes first.

Execution is *supervised* (see :mod:`repro.supervise`): a crashed
worker, a hung job, or a raising config no longer sinks the campaign.
:meth:`ParallelRunner.map_outcomes` is the one way into the
:class:`~repro.supervise.Supervisor`.  It returns an index-aligned list
of typed :class:`~repro.supervise.outcome.JobOutcome` records — never
``None`` holes — so drivers can salvage partial results.  Each campaign
gets its own pool, torn down when it ends, and a campaign of one job
runs in the calling process whatever ``workers`` says — the windowed
engine (:mod:`repro.sim.sync`) submits a coupled run given a store or a
policy as one such job.  :meth:`ParallelRunner.run_many_outcomes` maps
the benchmark job over :class:`~repro.loadgen.lancet.BenchConfig` runs,
and :func:`run_campaign` is its strict form: it raises
:class:`~repro.errors.CampaignError` *after* the whole campaign has run
if any job was quarantined, with the full outcome list attached.

Passing a checkpoint store (or directory) makes the campaign durable:
completed jobs are flushed to ``repro-checkpoint-v1`` shards as they
land, keyed by a content digest of each job — for a benchmark run, of
``(config, tweak, watchdog)`` — and a later campaign over the same
directory replays them, with output byte-identical to an uninterrupted
run.

Everything shipped to workers (the job function, configs, tweaks,
results) must pickle, so the job functions are module-level.  ``tweak``
hooks that smuggle state back through closures (the ``holder`` pattern
the ablations use) cannot cross a process boundary — a campaign whose
payloads do not pickle therefore falls back to serial in-process
execution with a warning, and even a picklable tweak's side effects stay
in the worker.  Campaigns that need to *inspect* testbed state should
run with ``workers=1``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from functools import partial
from typing import Callable, Sequence

from repro.errors import CampaignError, WorkloadError

# NOTE: repro.loadgen imports this module (sweep/replications build on
# run_campaign), so lancet must be imported lazily inside the functions
# that need it — a module-level import here is a circular-import trap
# that only stays hidden while repro.loadgen happens to be imported
# first.
from repro.supervise import (
    CheckpointStore,
    JobOutcome,
    SupervisePolicy,
    Supervisor,
    Watchdog,
    derive_keys,
)

#: Warn when a requested pool oversubscribes the machine this much.
_OVERSUBSCRIBE_FACTOR = 4
#: Worker counts already warned about (warn once per distinct mistake,
#: not once per runner instantiation).
_warned_oversubscribed: set[int] = set()
_cpu_count: int | None = None


def _cpus() -> int:
    """``os.cpu_count()``, memoized (it takes a syscall on some
    platforms and every campaign construction calls through here)."""
    global _cpu_count
    if _cpu_count is None:
        _cpu_count = os.cpu_count() or 1
    return _cpu_count


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count: ``None``/``0`` means one per CPU.

    A request that oversubscribes the machine more than
    :data:`_OVERSUBSCRIBE_FACTOR`× draws one warning per distinct count
    — the pool is still created (tests legitimately oversubscribe tiny
    jobs), but a campaign-sized mistake should not pass silently, and
    repeating the same warning for every runner a sweep constructs
    would drown the log.
    """
    if workers is None or workers == 0:
        return _cpus()
    if workers < 0:
        raise WorkloadError(f"workers must be >= 0, got {workers}")
    cpus = _cpus()
    if (
        workers > _OVERSUBSCRIBE_FACTOR * cpus
        and workers not in _warned_oversubscribed
    ):
        _warned_oversubscribed.add(workers)
        warnings.warn(
            f"workers={workers} oversubscribes {cpus} CPU(s) more than "
            f"{_OVERSUBSCRIBE_FACTOR}x; the extra processes only add "
            f"scheduling overhead",
            stacklevel=3,
        )
    return workers


def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _check_diagnosis(diagnosis, tracer) -> None:
    """Diagnosis reads the trace stream, so it demands a tracer."""
    if diagnosis is None:
        return
    if tracer is None:
        from repro.errors import DiagnosisError

        raise DiagnosisError(
            "a DiagnosisHook needs the campaign's trace stream; "
            "pass tracer= alongside diagnosis="
        )
    diagnosis.attach(tracer)


def _as_store(checkpoint) -> CheckpointStore | None:
    """Accept a :class:`CheckpointStore`, a directory path, or None."""
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)


def _require_all_ok(outcomes: list[JobOutcome]) -> list:
    """Results of an all-green campaign, or :class:`CampaignError`."""
    failures = [o for o in outcomes if not o.ok]
    if failures:
        lines = "\n  ".join(f.describe() for f in failures)
        raise CampaignError(
            f"{len(failures)}/{len(outcomes)} campaign jobs quarantined:"
            f"\n  {lines}",
            outcomes=outcomes,
        )
    return [o.result for o in outcomes]


def _run_config(config, tweak, watchdog, tracer=None):
    """Worker entry point for benchmark campaigns (must be top-level)."""
    from repro.loadgen.lancet import run_benchmark

    return run_benchmark(
        config, tweak=tweak, tracer=tracer, watchdog=watchdog
    )


def _apply(payload):
    """Worker entry point for every campaign (must be top-level)."""
    fn, args = payload
    return fn(*args)


def _config_label(config: BenchConfig) -> str:
    return (
        f"rate={config.rate_per_sec:.0f} nagle={config.nagle} "
        f"seed={config.seed}"
    )


class ParallelRunner:
    """Run independent jobs over a supervised pool, results in input order.

    ``workers=1`` (the default) executes serially in-process — no pool,
    no pickling, tweak closures fully functional (but no wall-clock
    timeout enforcement: there is no second process to do the killing).
    ``workers=0`` uses one worker per CPU.  ``policy`` is the
    :class:`~repro.supervise.policy.SupervisePolicy` applied to every
    campaign this runner executes (default policy when ``None``).
    """

    def __init__(
        self, workers: int = 1, policy: SupervisePolicy | None = None
    ):
        self.workers = resolve_workers(workers)
        self.policy = policy
        #: Metrics registry of the most recent campaign (supervise.*).
        self.last_metrics = None

    def map_outcomes(
        self,
        fn: Callable,
        items: Sequence,
        checkpoint=None,
        labels: Sequence[str] | None = None,
        keys: Sequence[str] | None = None,
        tracer=None,
        diagnosis=None,
    ) -> list[JobOutcome]:
        """Apply a module-level ``fn`` to each item, under supervision.

        Each item is passed as positional arguments if it is a tuple,
        else as a single argument; outcomes align index-for-index with
        ``items``.  ``labels`` name the jobs in failure reports,
        checkpoint records and trace boundaries; ``keys`` override the
        checkpoint/dedupe keys (default: content digests of the
        payloads).  ``checkpoint`` (a store, or a directory this call
        opens and closes) records completed jobs and replays the ones
        it already holds.

        The jobs run one of three ways:

        - with ``tracer`` (a :class:`repro.obs.Tracer`), serially in this
          process, because the trace is one ordered stream and a tracer
          cannot cross a process boundary.  Each fresh job is preceded
          by a ``log.message`` boundary record naming its position and
          label, so a campaign trace can be split back into jobs
          (replayed jobs emit nothing).  ``diagnosis`` (a
          :class:`repro.diagnose.DiagnosisHook`) scores each job's
          segment; it requires ``tracer`` and is attached to it here if
          not already, or :class:`~repro.errors.DiagnosisError` is
          raised;
        - when a payload does not pickle, serially in this process,
          after one warning;
        - otherwise on a pool of ``min(workers, len(items))`` processes
          (a campaign of one job runs in this process).
        """
        n = len(items)
        _check_diagnosis(diagnosis, tracer)
        payloads = [
            (fn, item if isinstance(item, tuple) else (item,))
            for item in items
        ]
        workers = min(self.workers, n)
        if tracer is not None:
            def job(payload):
                index, inner = payload
                if tracer.enabled:
                    name = (
                        labels[index]
                        if labels is not None
                        else f"job {index + 1}/{n}"
                    )
                    tracer.log_message(f"campaign run {index + 1}/{n}: {name}")
                return _apply(inner)

            payloads, workers = list(enumerate(payloads)), 1
        else:
            job = _apply
            if workers > 1 and not _picklable(payloads):
                warnings.warn(
                    "a job payload is not picklable; running the campaign "
                    "serially (use module-level functions and tweaks, or "
                    "workers=1)",
                    stacklevel=2,
                )
                workers = 1
        store = _as_store(checkpoint)
        supervisor = Supervisor(
            workers=workers, policy=self.policy, checkpoint=store,
            tracer=tracer, diagnosis=diagnosis,
        )
        self.last_metrics = supervisor.metrics
        try:
            return supervisor.run(job, payloads, keys=keys, labels=labels)
        finally:
            if store is not checkpoint:  # opened here from a directory
                store.close()

    def run_many_outcomes(
        self,
        configs: Sequence[BenchConfig],
        tweak: Callable | None = None,
        tracer=None,
        checkpoint=None,
        watchdog: Watchdog | None = None,
        diagnosis=None,
    ) -> list[JobOutcome]:
        """A benchmark campaign: :func:`_run_config` over ``configs``.

        Every config (and ``watchdog``) is validated before anything
        runs, so a rejected one raises
        :class:`~repro.errors.WorkloadError` instead of being retried
        into quarantine.  ``watchdog`` bounds each run in events and
        simulated time (see :class:`~repro.supervise.watchdog.Watchdog`).
        Each job is keyed by a content digest of ``(config, tweak,
        watchdog)`` and labelled by its rate, Nagle setting and seed;
        ``checkpoint``, ``tracer`` and ``diagnosis`` are as in
        :meth:`map_outcomes`, and the tracer is threaded into each fresh
        run.
        """
        for config in configs:
            config.validate()
        if watchdog is not None:
            watchdog.validate()
        items = [(config, tweak, watchdog) for config in configs]
        return self.map_outcomes(
            _run_config if tracer is None
            else partial(_run_config, tracer=tracer),
            items,
            checkpoint=checkpoint,
            labels=[_config_label(config) for config in configs],
            keys=derive_keys(items, durable=checkpoint is not None),
            tracer=tracer,
            diagnosis=diagnosis,
        )


def run_campaign(
    configs: Sequence[BenchConfig],
    tweak: Callable | None = None,
    workers: int = 1,
    tracer=None,
    policy: SupervisePolicy | None = None,
    checkpoint=None,
    watchdog: Watchdog | None = None,
    diagnosis=None,
) -> list[RunResult]:
    """Run every config; results align index-for-index with ``configs``.

    Output is identical to ``[run_benchmark(c, tweak=tweak) for c in
    configs]`` — runs are deterministic given their config, and the
    merge preserves input order.  Raises
    :class:`~repro.errors.CampaignError` (with the full outcome list
    attached) if any job was quarantined after retries.
    """
    return _require_all_ok(
        ParallelRunner(workers, policy=policy).run_many_outcomes(
            configs, tweak=tweak, tracer=tracer,
            checkpoint=checkpoint, watchdog=watchdog, diagnosis=diagnosis,
        )
    )
