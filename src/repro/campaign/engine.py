"""The campaign engine: expand, execute, dedupe, score.

:func:`run_spec` is the whole pipeline: expand the spec's matrix
(:mod:`repro.campaign.matrix`), build each cell's runner arguments
through its scenario (:mod:`repro.campaign.spec`), execute the lot
through :meth:`repro.parallel.ParallelRunner.map_outcomes` with
explicit content-addressed keys — so cells whose built configs coincide
run once (``supervise.deduped``) and a ``--cache-dir`` store replays
recorded cells byte-identically — then harvest the spec's
metrics from each result and reduce them to a
:class:`~repro.campaign.report.ImportanceReport`.

Determinism contract: the same spec produces the same matrix, the same
cell ordering, the same job keys, and — because every cell is a
deterministic simulation keyed by its config — the same report bytes,
regardless of worker count, caching, or how a previous run was
interrupted.  Execution accounting (executed/deduped/cached) therefore
lives on the returned :class:`CampaignRun` and its metrics registry,
never inside the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.importance import compute_importance
from repro.campaign.matrix import RunMatrix, expand
from repro.campaign.report import ImportanceReport
from repro.campaign.spec import SCENARIOS, CampaignSpec
from repro.errors import CampaignSpecError


@dataclass(frozen=True)
class CampaignRun:
    """One executed campaign: the report plus execution accounting.

    ``results`` aligns index-for-index with ``matrix.cells`` (the
    scenario's raw result objects, for consumers that need more than
    the harvested metrics — the ported ablation driver does).
    """

    spec: CampaignSpec
    matrix: RunMatrix
    report: ImportanceReport
    results: tuple
    values: tuple[dict, ...]
    executed: int
    deduped: int
    cached: int

    @property
    def cells(self) -> int:
        """Expanded matrix size."""
        return len(self.matrix.cells)

    def describe(self) -> str:
        """One accounting line for the CLI (not part of the report)."""
        return (
            f"campaign {self.spec.name}: {self.cells} cell(s), "
            f"{self.executed} executed, {self.deduped} deduped, "
            f"{self.cached} from checkpoint"
        )


def build_cells(spec: CampaignSpec, matrix: RunMatrix) -> list[tuple]:
    """Each cell's runner arguments, built through the scenario.

    Raises :class:`~repro.errors.CampaignSpecError` naming the cell when
    an override does not fit the scenario — expansion-time validation,
    before anything runs.
    """
    scenario = SCENARIOS[spec.scenario]
    cells = []
    for cell in matrix.cells:
        try:
            cells.append(scenario.build(dict(cell.overrides)))
        except CampaignSpecError as exc:
            raise CampaignSpecError(
                f"cell {cell.index} ({cell.label}): {exc}"
            ) from exc
    return cells


def run_spec(
    spec: CampaignSpec,
    workers: int = 1,
    policy=None,
    checkpoint=None,
    tracer=None,
    diagnosis=None,
    watchdog=None,
    metrics=None,
) -> CampaignRun:
    """Execute a campaign spec end to end (see the module doc).

    ``workers``/``policy``/``checkpoint`` are the standard supervised
    campaign knobs (see :class:`~repro.parallel.ParallelRunner`);
    ``checkpoint`` may be a directory or a
    :class:`~repro.supervise.CheckpointStore`.  ``tracer`` records the
    campaign as one ``repro-trace-v1`` stream (forcing serial execution)
    with a ``campaign.plan`` record up front and a
    ``campaign.importance`` record after scoring; benchmark-shaped
    scenarios additionally thread the tracer into each fresh run.  ``diagnosis`` (requires
    ``tracer``) scores each cell's trace segment.  ``watchdog`` bounds
    each cell (benchmark-shaped scenarios only).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    ``campaign.*`` counters.

    Raises :class:`~repro.errors.CampaignError` with salvaged outcomes
    attached if any cell was quarantined after retries.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import ParallelRunner, _require_all_ok
    from repro.supervise.checkpoint import job_key

    scenario = SCENARIOS[spec.scenario]
    if watchdog is not None:
        if not scenario.bench:
            raise CampaignSpecError(
                f"scenario {spec.scenario!r} does not support a watchdog "
                "(only benchmark-shaped scenarios do)"
            )
        watchdog.validate()

    matrix = expand(spec)
    items = build_cells(spec, matrix)
    if watchdog is not None:
        items = [args + (watchdog,) for args in items]
    keys = [job_key((scenario.runner, args)) for args in items]
    labels = [f"{spec.name}:{cell.label}" for cell in matrix.cells]

    registry = metrics if metrics is not None else MetricsRegistry()
    registry.counter("campaign.cells").inc(len(items))
    registry.counter("campaign.unique_cells").inc(len(set(keys)))

    if tracer is not None and tracer.enabled:
        tracer.campaign_plan(
            campaign=spec.name,
            scenario=spec.scenario,
            spec_digest=matrix.spec_digest,
            cells=len(items),
            components=[c.name for c in spec.components],
            tweaks=[t.name for t in spec.tweaks],
            metrics=list(spec.metrics),
        )

    fn = scenario.runner
    if tracer is not None and scenario.bench:
        runner_fn = scenario.runner

        def fn(*args):
            return runner_fn(*args, tracer=tracer)

    runner = ParallelRunner(workers, policy=policy)
    outcomes = runner.map_outcomes(
        fn, items,
        checkpoint=checkpoint, labels=labels, keys=keys,
        tracer=tracer, diagnosis=diagnosis,
    )
    results = _require_all_ok(outcomes)

    supervise = runner.last_metrics
    deduped = supervise.counter("supervise.deduped").value
    cached = supervise.counter("supervise.checkpoint_hits").value
    executed = len(items) - deduped - cached
    registry.counter("campaign.deduped").inc(deduped)
    registry.counter("campaign.cached").inc(cached)
    registry.counter("campaign.executed").inc(executed)

    extractors = scenario.metrics
    values = tuple(
        {metric: extractors[metric](result) for metric in spec.metrics}
        for result in results
    )
    scored = compute_importance(spec, matrix, list(values))
    report = ImportanceReport(
        campaign=spec.name,
        scenario=spec.scenario,
        spec_digest=matrix.spec_digest,
        seed=spec.seed,
        repetitions=spec.repetitions,
        cells=len(items),
        metrics=spec.metrics,
        baseline=scored["baseline"],
        all_on=scored["all_on"],
        components=tuple(scored["components"]),
        ranking=tuple(scored["ranking"]),
    )

    if tracer is not None and tracer.enabled:
        tracer.campaign_importance(
            campaign=spec.name,
            ranking=list(report.ranking),
            scores={
                entry["name"]: entry["score"] for entry in report.components
            },
        )

    return CampaignRun(
        spec=spec,
        matrix=matrix,
        report=report,
        results=tuple(results),
        values=values,
        executed=executed,
        deduped=deduped,
        cached=cached,
    )
