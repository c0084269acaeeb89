"""Resilient campaign execution: supervision, retry, checkpoint/resume.

This package turns "run these N configs" from a best-effort pool map
into a supervised campaign:

- :mod:`~repro.supervise.supervisor` — the engine: per-job wall-clock
  timeouts with hung-worker kill, worker-crash recovery on a fresh
  pool, bounded retry with deterministic backoff, and poison-config
  quarantine into typed outcomes;
- :mod:`~repro.supervise.policy` — every supervision knob in one
  frozen :class:`SupervisePolicy`;
- :mod:`~repro.supervise.outcome` — :class:`JobSuccess` /
  :class:`JobFailure`, index-aligned with the submitted jobs;
- :mod:`~repro.supervise.checkpoint` — the ``repro-checkpoint-v1``
  JSONL shard store keyed by config content digest: the one result
  store behind ``repro ... --cache-dir DIR``, which resumes an
  interrupted campaign and replays runs shared between experiments;
- :mod:`~repro.supervise.watchdog` — in-simulation event/sim-time
  budgets raising the typed :class:`~repro.errors.WatchdogError`.

:mod:`repro.parallel` builds its campaign API on this package, and
:meth:`repro.parallel.ParallelRunner.map_outcomes` is the one caller of
:class:`Supervisor`; drivers and the CLI only thread
:class:`SupervisePolicy` and checkpoint stores or directories through.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CHECKPOINT_SCHEMA": ".checkpoint",
    "CheckpointStore": ".checkpoint",
    "derive_keys": ".checkpoint",
    "job_key": ".checkpoint",
    "volatile_key": ".checkpoint",
    "KIND_CRASH": ".outcome",
    "KIND_ERROR": ".outcome",
    "KIND_TIMEOUT": ".outcome",
    "JobFailure": ".outcome",
    "JobOutcome": ".outcome",
    "JobSuccess": ".outcome",
    "split_outcomes": ".outcome",
    "SupervisePolicy": ".policy",
    "Supervisor": ".supervisor",
    "Watchdog": ".watchdog",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
