"""The typed campaign-spec model and the scenario registry.

:func:`load_spec` reads a ``repro-campaign-v1`` document (JSON always;
YAML when pyyaml is importable) and :func:`parse_spec` turns it into a
frozen :class:`CampaignSpec`, rejecting structural problems with one
:class:`~repro.errors.CampaignSpecError` that lists everything wrong.

A spec names a *scenario* — the shape of what one matrix cell executes.
Each entry in :data:`SCENARIOS` knows how to turn a cell's merged
override dict into runner arguments (:meth:`Scenario.build`), which
module-level function executes those arguments in a supervised worker,
and which metrics can be harvested from the result.  Override keys are
the scenario config's own field names plus a few documented
conveniences (``measure_ms``/``warmup_ms`` in milliseconds, workload
shorthands like ``set_ratio``, and ``fault_plan``/``fault_intensity``
by plan name); an unknown key raises with the full valid-key list, so a
spec typo cannot silently run the wrong experiment.

Everything a build returns is a content-addressable dataclass tree —
the engine derives each cell's checkpoint/dedupe key from it (see
:func:`repro.supervise.checkpoint.job_key`), which is what makes
overlapping matrix cells run once and ``--cache-dir`` reruns free.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.campaign.schema import (
    MATRIX_FAMILIES,
    SPEC_SCHEMA,
    validate_spec_document,
)
from repro.errors import CampaignSpecError
from repro.units import msecs


# ---------------------------------------------------------------------------
# The spec model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """One ablatable component: overrides for its on and off states."""

    name: str
    on: dict = field(default_factory=dict)
    off: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TweakSpec:
    """One named explicit variant crossed against the component matrix."""

    name: str
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """One explicit sweep axis (cross-multiplied in spec order)."""

    field: str
    values: tuple


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign (see docs/CAMPAIGNS.md)."""

    name: str
    scenario: str = "run"
    base: dict = field(default_factory=dict)
    components: tuple[ComponentSpec, ...] = ()
    tweaks: tuple[TweakSpec, ...] = ()
    sweeps: tuple[SweepSpec, ...] = ()
    matrix: tuple[str, ...] = MATRIX_FAMILIES
    metrics: tuple[str, ...] = ()
    repetitions: int = 1
    seed: int = 1

    def to_document(self) -> dict:
        """The spec back in ``repro-campaign-v1`` document form."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "scenario": self.scenario,
            "base": dict(self.base),
            "components": [
                {"name": c.name, "on": dict(c.on), "off": dict(c.off)}
                for c in self.components
            ],
            "tweaks": [
                {"name": t.name, "overrides": dict(t.overrides)}
                for t in self.tweaks
            ],
            "sweeps": [
                {"field": s.field, "values": list(s.values)}
                for s in self.sweeps
            ],
            "matrix": list(self.matrix),
            "metrics": list(self.metrics),
            "repetitions": self.repetitions,
            "seed": self.seed,
        }

    def canonical(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) of the document."""
        return json.dumps(
            self.to_document(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """sha256 of :meth:`canonical` — the spec's identity."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Override application per config shape.
# ---------------------------------------------------------------------------

#: Millisecond conveniences accepted anywhere the target has *_ns fields.
_TIME_KEYS = {"measure_ms": "measure_ns", "warmup_ms": "warmup_ns",
              "min_rto_ms": "min_rto_ns"}
#: Workload shorthands lifted onto BenchConfig/FaninConfig overrides.
_WORKLOAD_KEYS = ("set_ratio", "key_bytes", "value_bytes", "keyspace")


def _reject(key, valid) -> CampaignSpecError:
    return CampaignSpecError(
        f"unknown override key {key!r}; valid keys: "
        + ", ".join(sorted(valid))
    )


def _field_names(config) -> set[str]:
    return {f.name for f in dataclasses.fields(config)}


def _workloaded_fields(config) -> set[str]:
    valid = _field_names(config)
    valid.update(_WORKLOAD_KEYS)
    valid.update(k for k in _TIME_KEYS if _TIME_KEYS[k] in valid)
    return valid


def _apply_config(config, overrides: dict, also_valid: tuple = ()):
    """Overrides onto any workload-bearing frozen config dataclass.

    ``also_valid`` names keys the caller handles itself — they only
    widen the valid-key list in the unknown-key error message.
    """
    valid = _workloaded_fields(config)
    valid.update(also_valid)
    updates: dict = {}
    workload_updates: dict = {}
    try:
        for key, value in overrides.items():
            if key in _TIME_KEYS and _TIME_KEYS[key] in valid:
                updates[_TIME_KEYS[key]] = msecs(value)
            elif key in _WORKLOAD_KEYS:
                workload_updates[key] = value
            elif key in _field_names(config):
                updates[key] = value
            else:
                raise _reject(key, valid)
        if workload_updates:
            updates["workload"] = replace(
                config.workload, **workload_updates
            )
        return replace(config, **updates)
    except (TypeError, ValueError) as exc:
        raise CampaignSpecError(f"invalid override value: {exc}") from exc


_UNSET = object()


def _apply_bench(config, overrides: dict):
    """Overrides onto a :class:`~repro.loadgen.lancet.BenchConfig`.

    ``fault_plan`` (a plan *name*, or null to clear) and
    ``fault_intensity`` resolve through :func:`repro.faults.named_plan`
    here, so specs stay plain JSON while the config carries the real
    :class:`~repro.faults.FaultPlan`.
    """
    merged = dict(overrides)
    plan_name = merged.pop("fault_plan", _UNSET)
    intensity = merged.pop("fault_intensity", None)
    fault_updates = {}
    if plan_name is not _UNSET or intensity is not None:
        if plan_name is _UNSET:
            if config.fault_plan is None:
                raise CampaignSpecError(
                    "fault_intensity needs fault_plan in the same cell"
                )
            plan = config.fault_plan
        elif plan_name is None:
            plan = None
        else:
            from repro.faults import named_plan

            plan = named_plan(plan_name)
        if plan is not None and intensity is not None:
            if float(intensity) != 1.0:
                plan = plan.scaled(float(intensity))
        fault_updates["fault_plan"] = (
            None if plan is None or plan.is_noop else plan
        )
    config = _apply_config(
        config, merged, also_valid=("fault_plan", "fault_intensity")
    )
    if fault_updates:
        config = replace(config, **fault_updates)
    return config


# ---------------------------------------------------------------------------
# Module-level cell runners (must pickle; see repro.parallel).
# ---------------------------------------------------------------------------


def _run_bench_cell(config, watchdog=None, tracer=None):
    """One ``run``/``fig2``/``faults`` cell: a plain benchmark run."""
    from repro.loadgen.lancet import run_benchmark

    return run_benchmark(config, tracer=tracer, watchdog=watchdog)


def _run_fanin_cell(config, with_toggler=False, shards=None):
    """One ``fanin`` cell: N clients through a switch into one server.

    With ``shards`` set the cell runs the decomposed model, each
    connection with a server replica of its own, as ``shards`` jobs in
    this cell's process (:func:`~repro.experiments.fanin.run_fanin_sharded`,
    byte-identical for every shard count; see docs/PERFORMANCE.md) and
    returns a :class:`~repro.experiments.fanin.ShardedFaninResult`.
    """
    if shards is not None:
        from repro.experiments.fanin import run_fanin_sharded

        return run_fanin_sharded(config, shards=shards)
    from repro.experiments.fanin import run_fanin

    return run_fanin(config, with_toggler=with_toggler)


def _run_timevarying_cell(plan, base):
    """One ``timevarying`` cell: all three policies over the load walk."""
    from repro.experiments.timevarying import run_timevarying

    return run_timevarying(plan=plan, base=base)


# ---------------------------------------------------------------------------
# Metric extractors.
# ---------------------------------------------------------------------------


def _estimate_ns(result):
    if result.estimate is None or not result.estimate.defined:
        return None
    return result.estimate.latency_ns


#: Metrics over a :class:`~repro.loadgen.lancet.RunResult`.
RUN_METRICS: dict[str, Callable] = {
    "latency_mean_ns": lambda r: r.latency.mean_ns,
    "latency_p50_ns": lambda r: r.latency.p50_ns,
    "latency_p99_ns": lambda r: r.latency.p99_ns,
    "send_latency_mean_ns": lambda r: r.send_latency.mean_ns,
    "achieved_rate": lambda r: r.achieved_rate,
    "estimate_ns": _estimate_ns,
    "hint_latency_ns": lambda r: r.hint_latency_ns,
    "client_cpu": lambda r: r.client_cpu,
    "server_cpu": lambda r: r.server_cpu,
    "server_mean_batch": lambda r: r.server_mean_batch,
    "client_wire_packets": lambda r: r.client_wire_packets,
    "server_deliveries": lambda r: r.server_deliveries,
}

#: Metrics over a :class:`~repro.experiments.fanin.FaninResult` or (when
#: the cell sets ``shards``) a
#: :class:`~repro.experiments.fanin.ShardedFaninResult`, which carries
#: ``server_net_util_mean`` instead of ``server_net_util`` and has no
#: toggler fields.
FANIN_METRICS: dict[str, Callable] = {
    "aggregate_mean_ns": lambda r: r.aggregate_mean_ns,
    "averaged_estimate_ns": lambda r: r.averaged_estimate_ns,
    "server_net_util": lambda r: getattr(
        r, "server_net_util", getattr(r, "server_net_util_mean", None)
    ),
    "toggler_toggles": lambda r: getattr(r, "toggler_toggles", None),
}


def _timevarying_metrics() -> dict[str, Callable]:
    metrics: dict[str, Callable] = {}
    for policy in ("static-off", "static-on", "dynamic"):
        for phase in ("low-1", "high", "low-2"):
            metrics[f"{policy}:{phase}_ns"] = (
                lambda r, p=policy, ph=phase:
                r.policy(p).phase_latency_ns[ph]
            )
    metrics["dynamic:toggles"] = lambda r: r.policy("dynamic").toggles
    return metrics


#: Metrics over a :class:`~repro.experiments.timevarying.TimeVaryingResult`.
TIMEVARYING_METRICS = _timevarying_metrics()


# ---------------------------------------------------------------------------
# The scenario registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One registered cell shape.

    ``build`` maps a cell's merged override dict to the runner's
    positional arguments; ``runner`` is the module-level function the
    supervised pool executes; ``metrics`` names what can be harvested
    from one result.  ``bench`` marks scenarios whose runner accepts the
    engine's ``watchdog``/``tracer`` passthrough (plain benchmark runs).
    """

    name: str
    doc: str
    runner: Callable
    build: Callable[[dict], tuple]
    metrics: dict[str, Callable]
    bench: bool = False


def _build_run(overrides: dict) -> tuple:
    from repro.experiments.fig4a import default_config

    return (_apply_bench(default_config(), overrides),)


def _build_fig2(overrides: dict) -> tuple:
    from repro.experiments.fig2 import fig2_config

    merged = dict(overrides)
    vm = merged.pop("vm", False)
    if not isinstance(vm, bool):
        raise CampaignSpecError(f"fig2 override vm must be a bool, got {vm!r}")
    nagle = merged.pop("nagle", False)
    seed = merged.pop("seed", 1)
    measure_ns = (
        msecs(merged.pop("measure_ms")) if "measure_ms" in merged
        else merged.pop("measure_ns", msecs(150))
    )
    config = fig2_config(vm, nagle, seed, measure_ns)
    return (_apply_bench(config, merged),)


def _build_faults(overrides: dict) -> tuple:
    from repro.experiments.fig4a import default_config

    merged = {
        "rate_per_sec": 15_000.0,
        "min_rto_ms": 5,
        "fault_plan": "mixed",
    }
    merged.update(overrides)
    return (_apply_bench(default_config(), merged),)


def _build_fanin(overrides: dict) -> tuple:
    from repro.experiments.fanin import FaninConfig

    merged = dict(overrides)
    with_toggler = merged.pop("with_toggler", False)
    if not isinstance(with_toggler, bool):
        raise CampaignSpecError(
            f"fanin override with_toggler must be a bool, got {with_toggler!r}"
        )
    shards = merged.pop("shards", None)
    if shards is not None:
        if shards == "auto":
            from repro.parallel import resolve_workers

            shards = resolve_workers(0)
        elif not isinstance(shards, int) or isinstance(shards, bool) \
                or shards < 1:
            raise CampaignSpecError(
                f"fanin override shards must be a positive integer or "
                f"'auto', got {shards!r}"
            )
        if with_toggler:
            raise CampaignSpecError(
                "fanin overrides shards and with_toggler are incompatible: "
                "the toggler couples connections through the shared server, "
                "which component sharding forbids"
            )
        config = _apply_config(
            FaninConfig(), merged, also_valid=("shards", "with_toggler")
        )
        return (config, with_toggler, shards)
    config = _apply_config(
        FaninConfig(), merged, also_valid=("shards", "with_toggler")
    )
    return (config, with_toggler)


def _build_timevarying(overrides: dict) -> tuple:
    from repro.experiments.fig4a import default_config
    from repro.experiments.timevarying import PhasePlan

    merged = dict(overrides)
    plan_updates = {}
    for key in ("low_rate", "high_rate"):
        if key in merged:
            plan_updates[key] = merged.pop(key)
    if "phase_ms" in merged:
        plan_updates["phase_ns"] = msecs(merged.pop("phase_ms"))
    if "phase_ns" in merged:
        plan_updates["phase_ns"] = merged.pop("phase_ns")
    plan = replace(PhasePlan(), **plan_updates)
    return (plan, _apply_bench(default_config(), merged))


SCENARIOS: dict[str, Scenario] = {
    "run": Scenario(
        name="run",
        doc="one client/server benchmark run (the fig4a substrate); "
            "overrides are BenchConfig fields plus measure_ms/warmup_ms/"
            "min_rto_ms, workload shorthands, and fault_plan/"
            "fault_intensity",
        runner=_run_bench_cell,
        build=_build_run,
        metrics=RUN_METRICS,
        bench=True,
    ),
    "fig2": Scenario(
        name="fig2",
        doc="the Figure 2 fixed-rate cell; overrides add vm (bool client "
            "placement) on top of the run scenario's key space",
        runner=_run_bench_cell,
        build=_build_fig2,
        metrics=RUN_METRICS,
        bench=True,
    ),
    "faults": Scenario(
        name="faults",
        doc="a benchmark run under an injected fault plan (defaults: "
            "plan 'mixed', 15 kRPS, 5 ms RTO floor); same key space as "
            "run",
        runner=_run_bench_cell,
        build=_build_faults,
        metrics=RUN_METRICS,
        bench=True,
    ),
    "fanin": Scenario(
        name="fanin",
        doc="A10 fan-in: N clients through a switch into one server; "
            "overrides are FaninConfig fields plus workload shorthands, "
            "with_toggler, and shards (positive int or 'auto' to run the "
            "byte-identical sharded path)",
        runner=_run_fanin_cell,
        build=_build_fanin,
        metrics=FANIN_METRICS,
    ),
    "timevarying": Scenario(
        name="timevarying",
        doc="A8 low->high->low load walk over all three policies; "
            "overrides add low_rate/high_rate/phase_ms on top of the "
            "run scenario's key space",
        runner=_run_timevarying_cell,
        build=_build_timevarying,
        metrics=TIMEVARYING_METRICS,
    ),
}


# ---------------------------------------------------------------------------
# Parsing and loading.
# ---------------------------------------------------------------------------


def parse_spec(document) -> CampaignSpec:
    """A :class:`CampaignSpec` from a ``repro-campaign-v1`` document.

    Raises :class:`~repro.errors.CampaignSpecError` listing *every*
    structural problem at once, so a spec author fixes one round trip,
    not one field per run.
    """
    problems = validate_spec_document(document)
    scenario = "run"
    if not problems:
        scenario = document.get("scenario", "run")
        if scenario not in SCENARIOS:
            problems.append(
                f"spec: unknown scenario {scenario!r}; choose from "
                f"{sorted(SCENARIOS)}"
            )
        else:
            known = SCENARIOS[scenario].metrics
            for metric in document.get("metrics", []):
                if metric not in known:
                    problems.append(
                        f"spec: metric {metric!r} is not defined for "
                        f"scenario {scenario!r}; choose from {sorted(known)}"
                    )
        repetitions = document.get("repetitions", 1)
        if isinstance(repetitions, int) and repetitions < 1:
            problems.append("spec: repetitions must be >= 1")
    if problems:
        raise CampaignSpecError(
            f"invalid {SPEC_SCHEMA} spec: " + "; ".join(problems)
        )
    return CampaignSpec(
        name=document["name"],
        scenario=scenario,
        base=dict(document.get("base", {})),
        components=tuple(
            ComponentSpec(
                name=c["name"],
                on=dict(c.get("on", {})),
                off=dict(c.get("off", {})),
            )
            for c in document.get("components", [])
        ),
        tweaks=tuple(
            TweakSpec(name=t["name"], overrides=dict(t.get("overrides", {})))
            for t in document.get("tweaks", [])
        ),
        sweeps=tuple(
            SweepSpec(field=s["field"], values=tuple(s["values"]))
            for s in document.get("sweeps", [])
        ),
        matrix=tuple(document.get("matrix", MATRIX_FAMILIES)),
        metrics=tuple(document["metrics"]),
        repetitions=document.get("repetitions", 1),
        seed=document.get("seed", 1),
    )


def load_document(path) -> dict:
    """A raw spec/report document from a JSON or YAML file."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignSpecError(f"{path}: unreadable spec: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise CampaignSpecError(
                f"{path}: YAML specs need pyyaml, which is not installed; "
                "use the JSON form of the spec instead (the formats are "
                "interchangeable — see docs/CAMPAIGNS.md)"
            ) from None
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignSpecError(f"{path}: invalid YAML: {exc}") from exc
    else:
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise CampaignSpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise CampaignSpecError(
            f"{path}: spec must be a mapping, got "
            f"{type(document).__name__}"
        )
    return document


def load_spec(path) -> CampaignSpec:
    """Read and parse a spec file (JSON always, YAML when available)."""
    return parse_spec(load_document(path))
