"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors like ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in
    the past, running a finished simulation)."""


class ProcessError(SimulationError):
    """A simulation process yielded something the scheduler cannot
    interpret, or was resumed after termination."""


class NetworkError(ReproError):
    """Invalid network configuration or packet handling (e.g. oversized
    frame for the link MTU without TSO)."""


class TcpError(ReproError):
    """TCP socket misuse: sending on a closed socket, malformed segment,
    option-encoding failures, and similar."""


class ProtocolError(ReproError):
    """Application-level protocol violation (malformed RESP data)."""


class EstimationError(ReproError):
    """Queue-state or estimator misuse, e.g. computing averages over an
    empty or negative interval."""


class WorkloadError(ReproError):
    """Invalid workload or load-generator configuration."""


class ObservabilityError(ReproError):
    """Observability-layer misuse: malformed trace files, records that
    violate the ``repro-trace-v1`` schema, invalid sink configuration."""


class DiagnosisError(ReproError):
    """Diagnosis-service misuse: out-of-range decision thresholds, a
    malformed ``repro-diagnosis-v1`` report, or scoring a report against
    ground truth it does not cover."""


class FaultError(ReproError):
    """Invalid fault plan or fault-injector misuse (e.g. out-of-range
    probabilities, a blackout longer than its flap period, or attaching
    two fault hooks to one link)."""


class WatchdogError(SimulationError):
    """A run exceeded its watchdog budget (event count or simulated
    time) — the typed fail-fast signal for runaway configurations, so a
    campaign supervisor can quarantine the config instead of spinning."""


class SuperviseError(ReproError):
    """Campaign-supervision misuse: invalid retry/timeout policy, a
    corrupt or incompatible checkpoint store, and similar."""


class CampaignError(SuperviseError):
    """A supervised campaign finished with quarantined jobs.

    Raised by the strict campaign entry points; :attr:`outcomes` holds
    the full index-aligned outcome list (successes included), so a
    caller can still salvage the completed runs.
    """

    def __init__(self, message: str, outcomes=None):
        super().__init__(message)
        self.outcomes = outcomes if outcomes is not None else []


class CampaignSpecError(ReproError):
    """A declarative campaign spec is malformed: unknown schema,
    invalid field, unresolvable override, or a matrix/metric selection
    the spec's scenario cannot satisfy."""
