"""Campaign-level parallelism: supervised fan-out over worker processes.

Every figure in the reproduction is a sweep of independent deterministic
simulations — rates x seeds x configurations — yet each simulation is
single-threaded.  :class:`ParallelRunner` fans a campaign of
:class:`~repro.loadgen.lancet.BenchConfig` runs (or any picklable
function over picklable items) across a worker pool and merges the
results back **in submission order**, so a parallel campaign is
byte-identical to the serial one: each run's output depends only on its
config (all randomness flows through the config's seed), and the merge
order is deterministic regardless of which worker finishes first.

Execution is *supervised* (see :mod:`repro.supervise`): a crashed
worker, a hung job, or a raising config no longer sinks the campaign.
Each entry point comes in two flavors:

- ``*_outcomes`` returns an index-aligned list of typed
  :class:`~repro.supervise.outcome.JobOutcome` records — never ``None``
  holes — so drivers can salvage partial results;
- the strict classics (:meth:`ParallelRunner.run_many`,
  :meth:`ParallelRunner.map`, :func:`run_campaign`) raise
  :class:`~repro.errors.CampaignError` *after* the whole campaign has
  run if any job was quarantined, with the full outcome list attached.

Passing a checkpoint store (or directory) makes the campaign durable:
completed jobs are flushed to ``repro-checkpoint-v1`` shards as they
land, keyed by a content digest of ``(config, tweak, watchdog)``, and a
later campaign over the same directory skips them — resume produces
output byte-identical to an uninterrupted run.

Spawn-safety: the worker entry points are module-level functions and
everything shipped to workers (configs, tweaks, results) must pickle, so
the runner works under the ``fork``, ``spawn``, and ``forkserver`` start
methods alike.  ``tweak`` hooks that smuggle state back through closures
(the ``holder`` pattern the ablations use) cannot cross a process
boundary — an unpicklable tweak therefore falls back to serial in-process
execution with a warning, and even a picklable tweak's side effects stay
in the worker.  Campaigns that need to *inspect* testbed state should run
with ``workers=1``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, Sequence, TypeVar

from repro.errors import CampaignError, WorkloadError

# NOTE: repro.loadgen imports this module (sweep/replications build on
# run_campaign), so lancet must be imported lazily inside the functions
# that need it — a module-level import here is a circular-import trap
# that only stays hidden while repro.loadgen happens to be imported
# first.
from repro.supervise import (
    CheckpointStore,
    JobOutcome,
    PoolLease,
    SupervisePolicy,
    Supervisor,
    Watchdog,
    derive_keys,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

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


def _run_config(payload):
    """Worker entry point for benchmark campaigns (must be top-level)."""
    from repro.loadgen.lancet import run_benchmark

    config, tweak, watchdog = payload
    return run_benchmark(config, tweak=tweak, watchdog=watchdog)


def _apply(payload):
    """Worker entry point for generic campaigns (must be top-level)."""
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
    ``workers=0`` uses one worker per CPU.  ``start_method`` selects the
    multiprocessing start method (``None`` uses the platform default;
    everything shipped is spawn-safe, so ``"spawn"`` works where
    ``fork`` is unavailable).  ``policy`` is the
    :class:`~repro.supervise.policy.SupervisePolicy` applied to every
    campaign this runner executes (default policy when ``None``).
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: str | None = None,
        policy: SupervisePolicy | None = None,
    ):
        self.workers = resolve_workers(workers)
        self.start_method = start_method
        self.policy = policy
        #: Metrics registry of the most recent campaign (supervise.*).
        self.last_metrics = None

    def _supervisor(
        self, n: int, checkpoint, tracer, diagnosis=None, remedy=None,
        session: PoolLease | None = None,
    ) -> Supervisor:
        supervisor = Supervisor(
            workers=min(self.workers, n),
            start_method=self.start_method,
            policy=self.policy,
            checkpoint=_as_store(checkpoint),
            tracer=tracer,
            diagnosis=diagnosis,
            remedy=remedy,
            pool=session,
        )
        self.last_metrics = supervisor.metrics
        return supervisor

    def session(self) -> PoolLease:
        """A :class:`~repro.supervise.PoolLease` for lock-step protocols.

        Pass the lease as ``session=`` to consecutive
        :meth:`map_outcomes` calls to keep their workers (and the warm
        per-process state they hold) across them: item ``i`` of every
        call runs in the same worker process, slot ``i mod workers``.
        ``close()`` it afterwards — or use it as a context manager.
        Supervision semantics are unchanged: a crashed or hung worker's
        slot is discarded and rebuilt, and the other slots keep theirs.
        """
        return PoolLease()

    # ------------------------------------------------------------------
    # Benchmark campaigns.
    # ------------------------------------------------------------------

    def run_many_outcomes(
        self,
        configs: Sequence[BenchConfig],
        tweak: Callable | None = None,
        tracer=None,
        checkpoint=None,
        watchdog: Watchdog | None = None,
        diagnosis=None,
        remedy=None,
    ) -> list[JobOutcome]:
        """Supervised campaign; outcomes align index-for-index.

        ``checkpoint`` (a store or directory path) records completed
        runs and skips ones already recorded.  ``watchdog`` bounds each
        run in events and simulated time (see
        :class:`~repro.supervise.watchdog.Watchdog`).

        ``tracer`` (a :class:`repro.obs.Tracer`) forces serial
        in-process execution: the trace is one ordered stream, and a
        tracer cannot cross a process boundary.  Each fresh run is
        preceded by a ``log.message`` boundary record naming its
        position and config, so a campaign trace can be split back into
        runs (checkpoint-skipped runs emit nothing).

        ``diagnosis`` (a :class:`repro.diagnose.DiagnosisHook`) scores
        each completed run's trace segment; it requires ``tracer`` (the
        hook reads the trace stream) and is attached to it here if not
        already.  Raises :class:`~repro.errors.DiagnosisError` when
        given without a tracer.

        ``remedy`` (a :class:`repro.remedy.RemedyEngine`) receives
        flagged completions and quarantines; it observes only and never
        changes an outcome.
        """
        from repro.loadgen.lancet import run_benchmark

        n = len(configs)
        if watchdog is not None:
            watchdog.validate()
        _check_diagnosis(diagnosis, tracer)
        keys = derive_keys(
            [(config, tweak, watchdog) for config in configs],
            durable=checkpoint is not None,
        )
        labels = [_config_label(config) for config in configs]

        if tracer is not None:
            def traced(payload):
                index, config = payload
                if tracer.enabled:
                    tracer.log_message(
                        f"campaign run {index + 1}/{n}: "
                        + _config_label(config)
                    )
                return run_benchmark(
                    config, tweak=tweak, tracer=tracer, watchdog=watchdog
                )

            supervisor = self._supervisor(
                1, checkpoint, tracer, diagnosis, remedy
            )
            return supervisor.run(
                traced, list(enumerate(configs)), keys=keys, labels=labels
            )

        if tweak is not None and min(self.workers, n) > 1 and not _picklable(tweak):
            warnings.warn(
                "tweak is not picklable; running the campaign serially "
                "(use a module-level tweak function, or workers=1)",
                stacklevel=2,
            )
            supervisor = self._supervisor(
                1, checkpoint, tracer, remedy=remedy
            )
            return supervisor.run(
                lambda config: run_benchmark(
                    config, tweak=tweak, watchdog=watchdog
                ),
                list(configs), keys=keys, labels=labels,
            )

        supervisor = self._supervisor(n, checkpoint, tracer, remedy=remedy)
        payloads = [(config, tweak, watchdog) for config in configs]
        return supervisor.run(_run_config, payloads, keys=keys, labels=labels)

    def run_many(
        self,
        configs: Sequence[BenchConfig],
        tweak: Callable | None = None,
        tracer=None,
        checkpoint=None,
        watchdog: Watchdog | None = None,
        diagnosis=None,
        remedy=None,
    ) -> list[RunResult]:
        """Run every config; results align index-for-index with ``configs``.

        Output is identical to ``[run_benchmark(c, tweak=tweak) for c in
        configs]`` — runs are deterministic given their config, and the
        merge preserves input order.  Raises
        :class:`~repro.errors.CampaignError` (with the full outcome list
        attached) if any job was quarantined after retries.
        """
        return _require_all_ok(
            self.run_many_outcomes(
                configs, tweak=tweak, tracer=tracer,
                checkpoint=checkpoint, watchdog=watchdog,
                diagnosis=diagnosis, remedy=remedy,
            )
        )

    # ------------------------------------------------------------------
    # Generic campaigns (e.g. fan-in scenarios, custom drivers).
    # ------------------------------------------------------------------

    def map_outcomes(
        self,
        fn: Callable[..., _R],
        items: Sequence,
        checkpoint=None,
        labels: Sequence[str] | None = None,
        keys: Sequence[str] | None = None,
        tracer=None,
        diagnosis=None,
        remedy=None,
        session: PoolLease | None = None,
    ) -> list[JobOutcome]:
        """Supervised :meth:`map`: typed outcomes instead of raising.

        ``labels`` name the jobs in failure reports and supervision
        traces; ``keys`` override the checkpoint/dedupe keys (default:
        content digests of the payloads).  ``tracer`` forces serial
        in-process execution — one ordered stream — with a
        ``log.message`` boundary record before each fresh job, exactly
        like :meth:`run_many_outcomes`; ``diagnosis`` (requires a
        tracer) scores each job's segment exactly as there.
        ``session`` (see :meth:`session`) keeps the workers across
        consecutive calls, item ``i`` always on the same one, instead of
        building a fresh pool per call.
        """
        n = len(items)
        _check_diagnosis(diagnosis, tracer)
        payloads = [
            (fn, item if isinstance(item, tuple) else (item,))
            for item in items
        ]
        if tracer is not None:
            def traced(payload):
                index, inner = payload
                if tracer.enabled:
                    name = (
                        labels[index]
                        if labels is not None
                        else f"job {index + 1}/{n}"
                    )
                    tracer.log_message(f"campaign run {index + 1}/{n}: {name}")
                return _apply(inner)

            supervisor = self._supervisor(
                1, checkpoint, tracer, diagnosis, remedy
            )
            return supervisor.run(
                traced, list(enumerate(payloads)), keys=keys, labels=labels
            )
        if min(self.workers, n) > 1 and not _picklable(fn):
            warnings.warn(
                "function is not picklable; running the campaign serially "
                "(use a module-level function, or workers=1)",
                stacklevel=2,
            )
            supervisor = self._supervisor(1, checkpoint, None, remedy=remedy)
        else:
            supervisor = self._supervisor(
                n, checkpoint, None, remedy=remedy, session=session
            )
        return supervisor.run(_apply, payloads, keys=keys, labels=labels)

    def map(self, fn: Callable[..., _R], items: Sequence) -> list[_R]:
        """Apply a module-level function to each item, in input order.

        Each item is passed as positional arguments if it is a tuple,
        else as a single argument.  Raises
        :class:`~repro.errors.CampaignError` if any job was quarantined.
        """
        return _require_all_ok(self.map_outcomes(fn, items))


def run_campaign(
    configs: Sequence[BenchConfig],
    tweak: Callable | None = None,
    workers: int = 1,
    start_method: str | None = None,
    tracer=None,
    policy: SupervisePolicy | None = None,
    checkpoint=None,
    watchdog: Watchdog | None = None,
    diagnosis=None,
    remedy=None,
) -> list[RunResult]:
    """One-shot convenience: ``ParallelRunner(workers).run_many(configs)``."""
    runner = ParallelRunner(workers, start_method=start_method, policy=policy)
    return runner.run_many(
        configs, tweak=tweak, tracer=tracer,
        checkpoint=checkpoint, watchdog=watchdog, diagnosis=diagnosis,
        remedy=remedy,
    )


def run_campaign_outcomes(
    configs: Sequence[BenchConfig],
    tweak: Callable | None = None,
    workers: int = 1,
    start_method: str | None = None,
    tracer=None,
    policy: SupervisePolicy | None = None,
    checkpoint=None,
    watchdog: Watchdog | None = None,
    diagnosis=None,
    remedy=None,
) -> list[JobOutcome]:
    """Salvage-friendly :func:`run_campaign`: typed outcomes, no raise."""
    runner = ParallelRunner(workers, start_method=start_method, policy=policy)
    return runner.run_many_outcomes(
        configs, tweak=tweak, tracer=tracer,
        checkpoint=checkpoint, watchdog=watchdog, diagnosis=diagnosis,
        remedy=remedy,
    )
