"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro fig1
    python -m repro fig4a --quick
    python -m repro fig2 --seeds 1 2 3
    python -m repro run --rate 35000 --nagle --value-bytes 16384
    python -m repro ablation units
    python -m repro ablation toggler --measure-ms 300
    python -m repro run --rate 50000 --toggler --trace toggler.jsonl
    python -m repro trace summarize toggler.jsonl
    python -m repro trace filter toggler.jsonl --type toggler.decision

Every command prints the same rows/series the paper reports (via each
experiment's ``render()``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.errors import ReproError
from repro.loadgen.arrivals import Workload
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.units import msecs, to_usecs


def _add_measure(parser: argparse.ArgumentParser, default_ms: int) -> None:
    parser.add_argument(
        "--measure-ms", type=int, default=default_ms,
        help=f"measurement window in simulated ms (default {default_ms})",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for independent runs (default 1 = serial, "
             "0 = one per CPU); results are identical to serial",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; a hung worker is killed and the "
             "run retried (needs --workers > 1; default: no timeout)",
    )


def _shards_arg(value: str):
    """``--shards`` accepts a positive count or ``auto`` (one per CPU)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def _resolve_shards(value):
    """Resolve a ``--shards`` value: ``auto`` -> one shard per CPU."""
    if value == "auto":
        from repro.parallel import resolve_workers

        return resolve_workers(0)
    return value


def _add_supervise(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result store (repro-checkpoint-v1): completed runs are "
             "stored by content digest and any experiment pointed at the "
             "same directory replays matching runs from disk, "
             "byte-identical to running them, so an interrupted campaign "
             "resumes where it stopped",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for a failing run before it is quarantined "
             "(default 2)",
    )


def _asks_supervision(args) -> bool:
    """Whether any of --workers, --cache-dir, --retries or --job-timeout
    is set."""
    return args.workers != 1 or any(
        getattr(args, flag) is not None
        for flag in ("cache_dir", "retries", "job_timeout")
    )


def _refuse(message: str) -> int:
    """Print ``error: message`` as one stderr line; returns exit code 2,
    the code for flags a command's model would ignore and for any
    library error a command raises."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _supervise_from(args):
    """(policy, checkpoint) from --retries/--job-timeout/--cache-dir."""
    policy = None
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "job_timeout", None)
    if retries is not None or timeout is not None:
        from repro.supervise import SupervisePolicy

        kwargs = {}
        if retries is not None:
            kwargs["max_attempts"] = retries + 1
        if timeout is not None:
            kwargs["job_timeout_s"] = timeout
        policy = SupervisePolicy(**kwargs)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return policy, None
    from repro.supervise import CheckpointStore

    return policy, CheckpointStore(cache_dir)


def _report_cache(checkpoint) -> None:
    """Close a --cache-dir store and print its hit/miss line."""
    if checkpoint is not None:
        checkpoint.close()
        print(checkpoint.describe())


def _cmd_fig1(args) -> int:
    from repro.experiments import run_fig1

    print(run_fig1(cs=tuple(args.c)).render())
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments import run_fig2

    tracer = _make_tracer(args.trace, label="fig2")
    policy, checkpoint = _supervise_from(args)
    diagnosis = _diagnosis_from(args)
    result = run_fig2(seeds=tuple(args.seeds),
                      measure_ns=msecs(args.measure_ms),
                      workers=args.workers,
                      tracer=tracer,
                      policy=policy,
                      checkpoint=checkpoint,
                      diagnosis=diagnosis)
    print(result.render())
    _report_diagnosis(diagnosis)
    _report_cache(checkpoint)
    _finish_tracer(tracer, args.trace)
    return 0


def _cmd_fig4a(args) -> int:
    from repro.experiments.fig4a import DEFAULT_RATES, default_config, run_fig4a

    rates = args.rates or ([10_000.0, 35_000.0, 55_000.0, 75_000.0]
                           if args.quick else DEFAULT_RATES)
    policy, checkpoint = _supervise_from(args)
    result = run_fig4a(
        rates=rates, base=default_config(measure_ns=msecs(args.measure_ms)),
        workers=args.workers, policy=policy, checkpoint=checkpoint,
    )
    print(result.render())
    _report_cache(checkpoint)
    return 0


def _cmd_fig4b(args) -> int:
    from repro.experiments.fig4b import DEFAULT_RATES, mixed_config, run_fig4b

    rates = args.rates or ([10_000.0, 30_000.0, 50_000.0]
                           if args.quick else DEFAULT_RATES)
    base = mixed_config()
    base = replace(base, measure_ns=msecs(args.measure_ms))
    policy, checkpoint = _supervise_from(args)
    result = run_fig4b(rates=rates, base=base, workers=args.workers,
                       policy=policy, checkpoint=checkpoint)
    print(result.render())
    _report_cache(checkpoint)
    return 0


def _make_tracer(path: str | None, label: str):
    """A JSONL-backed tracer for ``--trace PATH``, or None."""
    if not path:
        return None
    from repro.obs import JsonlSink, Tracer

    return Tracer(sink=JsonlSink(path), label=label)


def _finish_tracer(tracer, path: str) -> None:
    """Flush and report a ``--trace`` stream."""
    if tracer is None:
        return
    tracer.close()
    print(f"trace written to {path} ({tracer.emitted} records)")


def _fault_plan_from(args):
    if not args.fault_plan:
        return None
    from repro.faults import named_plan

    plan = named_plan(args.fault_plan)
    if args.fault_intensity != 1.0:
        plan = plan.scaled(args.fault_intensity)
    return None if plan.is_noop else plan


class _BedHolder:
    """Captures the testbed from a run and attaches what ``--deep`` and
    ``--toggler`` ask for; picklable so the supervised path can
    content-address the job even under ``--cache-dir``.

    The flags are instance state only when set, so a holder that asks
    for neither pickles as ``{'bed': None}``, the state its stored runs
    are keyed by, and a ``--toggler`` run gets a key of its own.
    """

    deep = False
    toggler = False
    nagle_toggler = None

    def __init__(self, deep: bool = False, toggler: bool = False):
        self.bed = None
        if deep:
            self.deep = True
        if toggler:
            self.toggler = True

    def __call__(self, bed) -> None:
        self.bed = bed
        if self.toggler:
            from repro.core.toggler import TogglerConfig
            from repro.experiments.ablations import attach_toggler

            self.nagle_toggler = attach_toggler(
                bed,
                config=TogglerConfig(
                    tick_ns=msecs(4), epsilon=0.05, min_samples=2
                ),
            )
        if self.deep:
            from repro.obs import attach_deep_tracing

            attach_deep_tracing(bed, bed.tracer)


def _cmd_run(args) -> int:
    if args.deep and not args.trace:
        return _refuse("--deep adds records to a trace; it needs "
                       "--trace PATH")
    if args.toggler and args.nagle:
        return _refuse("--toggler starts with Nagle off and flips it "
                       "itself; --nagle would be overridden")
    if args.toggler and args.connections != 1:
        return _refuse("--toggler estimates and flips connection 0 only; "
                       "it needs --connections 1")
    config = BenchConfig(
        rate_per_sec=args.rate,
        nagle=args.nagle,
        nagle_mode=args.nagle_mode,
        autocork=args.autocork,
        connections=args.connections,
        seed=args.seed,
        workload=Workload(
            set_ratio=args.set_ratio,
            value_bytes=args.value_bytes,
        ),
        warmup_ns=msecs(args.warmup_ms),
        measure_ns=msecs(args.measure_ms),
        client_cpu_factor=args.client_cpu_factor,
        min_rto_ns=msecs(args.min_rto_ms),
        fault_plan=_fault_plan_from(args),
    )
    tracer = _make_tracer(args.trace, label="run")
    policy, checkpoint = _supervise_from(args)
    want_bed = (
        args.dump_counters
        or config.fault_plan is not None
        or args.metrics is not None
        or tracer is not None
    )
    holder = (_BedHolder(deep=args.deep, toggler=args.toggler)
              if want_bed or args.toggler else None)
    if policy is not None or checkpoint is not None:
        # Supervised path: the run is stored under --cache-dir and
        # replayed (with identical output) when already recorded there.
        from repro.parallel import run_campaign

        result = run_campaign(
            [config], tweak=holder, tracer=tracer,
            policy=policy, checkpoint=checkpoint,
        )[0]
    else:
        result = run_benchmark(config, tweak=holder, tracer=tracer)
    restored = want_bed and holder.bed is None
    if restored:
        print("restored from checkpoint: testbed-dependent output "
              "(counters, fault summaries, metrics) is skipped")
    if (args.metrics is not None or tracer is not None) and not restored:
        from repro.obs import collect_run_metrics

        registry = collect_run_metrics(holder.bed, result=result,
                                       toggler=holder.nagle_toggler)
        snapshot = registry.snapshot()
        if tracer is not None:
            tracer.metrics_snapshot(snapshot)
        if args.metrics is not None:
            import json as _json
            import pathlib as _pathlib

            target = _pathlib.Path(args.metrics)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(_json.dumps(snapshot, indent=2) + "\n")
    print(f"offered: {result.offered_rate:,.0f} RPS   "
          f"achieved: {result.achieved_rate:,.0f} RPS")
    print(f"latency mean/p50/p99: {to_usecs(result.latency.mean_ns):.1f} / "
          f"{to_usecs(result.latency.p50_ns):.1f} / "
          f"{to_usecs(result.latency.p99_ns):.1f} us")
    if result.estimate is not None and result.estimate.defined:
        print(f"byte-queue estimate (sec. 3.2): "
              f"{to_usecs(result.estimate.latency_ns):.1f} us")
    if result.hint_latency_ns is not None:
        print(f"hint estimate (sec. 3.3): "
              f"{to_usecs(result.hint_latency_ns):.1f} us, "
              f"{result.hint_rps:,.0f} req/s")
    print(f"CPU: client app/net {result.client_app_util:.0%}/"
          f"{result.client_net_util:.0%}   server app/net "
          f"{result.server_app_util:.0%}/{result.server_net_util:.0%}")
    if (config.fault_plan is not None and not restored
            and holder.bed.faults is not None):
        import json as _json

        print(f"injected faults ({config.fault_plan.name}): "
              f"{_json.dumps(holder.bed.faults.summary())}")
    if args.dump_counters and not restored:
        from repro.analysis.dump import dump_testbed, render_stats

        print()
        print(render_stats(dump_testbed(holder.bed)))
    if args.metrics is not None and not restored:
        print(f"metrics written to {args.metrics}")
    _report_cache(checkpoint)
    _finish_tracer(tracer, args.trace)
    return 0


def _cmd_fanin(args) -> int:
    from repro.experiments.fanin import (
        FaninConfig,
        run_fanin,
        run_fanin_sharded,
    )

    if args.shards is None and _asks_supervision(args):
        return _refuse(
            "repro fanin without --shards runs in-process; "
            "--workers, --cache-dir, --retries and --job-timeout "
            "apply only with --shards"
        )
    if args.shards is not None and args.toggler:
        return _refuse(
            "repro fanin --shards runs the decomposed model; "
            "--toggler applies only without --shards"
        )
    config = FaninConfig(
        clients=args.clients,
        total_rate_per_sec=args.rate,
        nagle=args.nagle,
        warmup_ns=msecs(args.warmup_ms),
        measure_ns=msecs(args.measure_ms),
        seed=args.seed,
    )
    policy, checkpoint = _supervise_from(args)
    if args.shards is not None:
        result = run_fanin_sharded(
            config,
            shards=_resolve_shards(args.shards),
            workers=args.workers,
            policy=policy,
            checkpoint=checkpoint,
        )
        print(f"sharded fan-in: {config.clients} connections, "
              f"{result.merged_events} merged completions "
              f"(fingerprint {result.merge_fingerprint[:16]})")
        for index, mean in enumerate(result.per_client_mean_ns):
            print(f"  client {index}: mean {to_usecs(mean):.1f} us")
        print(f"  aggregate mean: "
              f"{to_usecs(result.aggregate_mean_ns):.1f} us")
        if result.averaged_estimate_ns is not None:
            print(f"  averaged estimate (sec. 3.2): "
                  f"{to_usecs(result.averaged_estimate_ns):.1f} us")
        print(f"  server replica net util (mean): "
              f"{result.server_net_util_mean:.0%}")
    else:
        result = run_fanin(config, with_toggler=args.toggler)
        print(result.render())
    if args.json:
        import pathlib as _pathlib

        target = _pathlib.Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(result.to_json() + "\n")
        print(f"result JSON written to {args.json}")
    _report_cache(checkpoint)
    return 0


def _cmd_bottleneck(args) -> int:
    from repro.experiments.bottleneck import (
        BottleneckConfig,
        run_shared_bottleneck,
    )

    config = BottleneckConfig(
        flows=args.flows,
        total_rate_per_sec=args.rate,
        nagle=args.nagle,
        warmup_ns=msecs(args.warmup_ms),
        measure_ns=msecs(args.measure_ms),
        seed=args.seed,
    )
    policy, checkpoint = _supervise_from(args)
    tracer = _make_tracer(args.trace, label="bottleneck")
    result = run_shared_bottleneck(
        config,
        policy=policy,
        checkpoint=checkpoint,
        tracer=tracer,
    )
    print(result.render())
    print(f"  bottleneck util {result.bottleneck_utilization:.0%}, "
          f"peak queue {result.bottleneck_peak_queue} packets, "
          f"{result.bottleneck_packets} packets through")
    print(f"  {result.windows} windows, "
          f"{result.exchanged_events} cross-shard messages "
          f"(fingerprint {result.merge_fingerprint[:16]})")
    if args.json:
        import pathlib as _pathlib

        target = _pathlib.Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(result.to_json() + "\n")
        print(f"result JSON written to {args.json}")
    _report_cache(checkpoint)
    _finish_tracer(tracer, args.trace)
    return 0


def _cmd_faults(args) -> int:
    from repro.experiments.faults import DEFAULT_INTENSITIES, run_faults
    from repro.obs import ProgressLog

    intensities = (
        tuple(args.intensities) if args.intensities
        else ((0.0, 1.0) if args.quick else DEFAULT_INTENSITIES)
    )
    tracer = _make_tracer(args.trace, label=f"faults:{args.plan}")
    result = run_faults(
        plan_name=args.plan,
        intensities=intensities,
        rate=args.rate,
        measure_ns=msecs(args.measure_ms),
        seed=args.seed,
        log=ProgressLog(quiet=args.quiet, tracer=tracer),
        tracer=tracer,
    )
    print(result.render())
    if args.json:
        result.write_json(args.json)
        print(f"robustness metrics written to {args.json}")
    _finish_tracer(tracer, args.trace)
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import ablations

    supervised = ("toggler", "variants")
    if args.which not in supervised and _asks_supervision(args):
        return _refuse(
            f"repro ablation {args.which} runs in-process; "
            f"--workers, --cache-dir, --retries and --job-timeout "
            f"apply only to {' and '.join(supervised)}"
        )
    measure = msecs(args.measure_ms)
    policy, checkpoint = _supervise_from(args)
    if args.which == "units":
        print(ablations.run_units_ablation(measure_ns=measure).render())
    elif args.which == "toggler":
        print(ablations.run_toggler_ablation(
            measure_ns=measure, workers=args.workers,
            policy=policy, checkpoint=checkpoint).render())
    elif args.which == "exchange":
        print(ablations.run_exchange_ablation(measure_ns=measure).render())
    elif args.which == "ewma":
        print(ablations.run_granularity_ablation(measure_ns=measure).render())
    elif args.which == "aimd":
        print(ablations.run_aimd_ablation(measure_ns=measure).render())
    elif args.which == "variants":
        print(ablations.run_variant_ablation(
            measure_ns=measure, workers=args.workers,
            policy=policy, checkpoint=checkpoint).render())
    elif args.which == "timevarying":
        from repro.experiments.timevarying import PhasePlan, run_timevarying

        print(run_timevarying(PhasePlan(phase_ns=measure)).render())
    else:  # pragma: no cover - argparse restricts choices
        return 2
    _report_cache(checkpoint)
    return 0


def _cmd_profile(args) -> int:
    import json as _json
    import pathlib as _pathlib

    from repro.profiling import (
        profile_run,
        shape_config,
        validate_profile,
    )

    if args.validate is not None:
        try:
            document = _json.loads(_pathlib.Path(args.validate).read_text())
        except (OSError, ValueError) as exc:
            print(f"{args.validate}: unreadable profile JSON: {exc}",
                  file=sys.stderr)
            return 1
        problems = validate_profile(document)
        if problems:
            for problem in problems[:20]:
                print(problem, file=sys.stderr)
            return 1
        print(f"{args.validate}: repro-profile-v1 OK "
              f"({len(document['top'])} functions)")
        return 0

    config = shape_config(args.shape, measure_ms=args.measure_ms,
                          seed=args.seed)
    document = profile_run(config, shape=args.shape, top_n=args.top)
    rendered = _json.dumps(document, indent=2) + "\n"
    if args.out is not None:
        target = _pathlib.Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(rendered)
        print(f"profile written to {args.out} "
              f"({document['events_per_sec']:,} events/sec under profiler)")
    else:
        print(rendered, end="")
    return 0


def _diagnosis_from(args):
    """A DiagnosisHook from --diagnose/--quarantine-on-diagnosis, or None."""
    if not (getattr(args, "diagnose", False)
            or getattr(args, "quarantine_on_diagnosis", False)):
        return None
    if not getattr(args, "trace", None):
        print("error: --diagnose needs --trace PATH (diagnosis reads the "
              "campaign's trace stream)", file=sys.stderr)
        raise SystemExit(2)
    from repro.diagnose import DiagnosisHook

    return DiagnosisHook(
        quarantine=getattr(args, "quarantine_on_diagnosis", False)
    )


def _report_diagnosis(diagnosis) -> None:
    """Print the campaign-wide diagnosis after a --diagnose run."""
    if diagnosis is None:
        return
    summary = diagnosis.report().summary()
    flagged = [v for v in diagnosis.verdicts if v.findings]
    print(f"diagnosis: {summary['runs']} run(s), "
          f"{summary['connections']} connection(s), "
          f"{summary['findings']} finding(s)"
          + (f" {summary['by_class']}" if summary["by_class"] else ""))
    for verdict in flagged:
        print(f"  job {verdict.index}: {verdict.describe()}")


def _add_diagnose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--diagnose", action="store_true",
        help="run the streaming diagnosis service over the campaign's "
             "trace (requires --trace); per-job verdicts are printed, "
             "recorded as diagnose.* metrics and diagnosis.verdict trace "
             "records",
    )
    parser.add_argument(
        "--quarantine-on-diagnosis", action="store_true",
        help="with --diagnose: a pathological verdict (frozen/oscillating "
             "toggler, estimator divergence) quarantines the job instead "
             "of completing it",
    )


def _load_trace(path):
    """The records of the trace at ``path``, or None once the reason it
    cannot be read is on stderr (the command then exits 1)."""
    from repro.errors import ObservabilityError
    from repro.obs import read_jsonl

    try:
        return read_jsonl(path)
    except (OSError, ValueError, ObservabilityError) as exc:
        print(f"{path}: unreadable trace: {exc}", file=sys.stderr)
        return None


def _cmd_diagnose(args) -> int:
    import json as _json
    import pathlib as _pathlib

    from repro.diagnose import (
        diagnose_records,
        follow_trace,
        render_report,
        require_valid_report,
        score_report,
    )
    from repro.diagnose.scoring import render_score
    from repro.errors import DiagnosisError

    if args.follow:
        def on_progress(classifier, new_records):
            summary = classifier.report().summary()
            print(f"  ... {classifier.records} records, "
                  f"{summary['runs']} run(s), "
                  f"{summary['findings']} finding(s)", file=sys.stderr)

        report = follow_trace(
            args.path,
            poll_s=args.poll,
            idle_timeout_s=args.idle_timeout,
            on_progress=on_progress if not args.quiet else None,
        )
    else:
        records = _load_trace(args.path)
        if records is None:
            return 1
        report = diagnose_records(records)

    document = report.to_json()
    if args.validate:
        problems = []
        try:
            require_valid_report(document)
        except DiagnosisError as exc:
            problems.append(str(exc))
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print(f"{args.path}: repro-diagnosis-v1 OK "
              f"({document['summary']['runs']} runs, "
              f"{document['summary']['findings']} findings)")

    if args.json is not None:
        if args.json == "-":
            sys.stdout.write(report.to_canonical())
        else:
            target = _pathlib.Path(args.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(report.to_canonical())
            print(f"diagnosis report written to {args.json}")
    elif not args.validate:
        print(render_report(report))

    status = 0
    if args.expect_clean and document["summary"]["findings"]:
        print(f"expected a clean trace but found "
              f"{document['summary']['findings']} finding(s): "
              f"{document['summary']['by_class']}", file=sys.stderr)
        status = 1
    if args.score is not None:
        try:
            truth = _json.loads(_pathlib.Path(args.score).read_text())
        except (OSError, ValueError) as exc:
            print(f"{args.score}: unreadable robustness JSON: {exc}",
                  file=sys.stderr)
            return 1
        try:
            score = score_report(report, truth.get("points", []))
        except DiagnosisError as exc:
            print(f"scoring failed: {exc}", file=sys.stderr)
            return 1
        print(render_score(score))
        if args.min_recall is not None:
            low = {
                cls: stats["recall"]
                for cls, stats in score["classes"].items()
                if stats["recall"] < args.min_recall
            }
            if low:
                print(f"recall below {args.min_recall:g}: {low}",
                      file=sys.stderr)
                status = 1
            if score["false_positives"]:
                print(f"{len(score['false_positives'])} unexplained "
                      f"finding(s)", file=sys.stderr)
                status = 1
    return status


def _cmd_trace_summarize(args) -> int:
    from repro.obs import render_summary, summarize_records

    records = _load_trace(args.path)
    if records is None:
        return 1
    print(render_summary(summarize_records(records)))
    return 0


def _cmd_trace_filter(args) -> int:
    import json as _json

    from repro.obs import filter_records

    records = _load_trace(args.path)
    if records is None:
        return 1
    shown = 0
    for record in filter_records(
        records,
        type_=args.type,
        src=args.src,
        since_ns=args.since_ns,
        until_ns=args.until_ns,
    ):
        print(_json.dumps(record, separators=(",", ":")))
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    return 0


def _cmd_campaign_run(args) -> int:
    import pathlib as _pathlib

    from repro.campaign import load_spec, run_spec
    from repro.errors import CampaignError, CampaignSpecError

    try:
        spec = load_spec(args.spec)
    except CampaignSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.measure_ms is not None:
        base = dict(spec.base)
        base.pop("measure_ns", None)
        base["measure_ms"] = args.measure_ms
        spec = replace(spec, base=base)
    tracer = _make_tracer(args.trace, label=f"campaign:{spec.name}")
    policy, checkpoint = _supervise_from(args)
    diagnosis = _diagnosis_from(args)
    try:
        run = run_spec(
            spec, workers=args.workers, policy=policy,
            checkpoint=checkpoint, tracer=tracer, diagnosis=diagnosis,
        )
    except CampaignSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _finish_tracer(tracer, args.trace)
        return 1
    print(run.report.render())
    print(run.describe())
    if args.json:
        if args.json == "-":
            sys.stdout.write(run.report.to_canonical())
        else:
            target = _pathlib.Path(args.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(run.report.to_canonical())
            print(f"importance report written to {args.json}")
    _report_diagnosis(diagnosis)
    _report_cache(checkpoint)
    _finish_tracer(tracer, args.trace)
    return 0


def _cmd_campaign_expand(args) -> int:
    import pathlib as _pathlib

    from repro.campaign import expand, load_spec
    from repro.errors import CampaignSpecError

    try:
        matrix = expand(load_spec(args.spec))
    except CampaignSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        rendered = matrix.to_json() + "\n"
        if args.json == "-":
            sys.stdout.write(rendered)
        else:
            target = _pathlib.Path(args.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(rendered)
            print(f"run matrix written to {args.json}")
    else:
        print(f"campaign {matrix.campaign}: {len(matrix.cells)} cell(s) "
              f"(spec digest {matrix.spec_digest[:16]})")
        for cell in matrix.cells:
            print(f"  {cell.index:3d}  {cell.label}")
    return 0


def _cmd_campaign_validate(args) -> int:
    from repro.campaign import (
        IMPORTANCE_SCHEMA,
        SPEC_SCHEMA,
        expand,
        load_document,
        parse_spec,
        validate_importance_document,
    )
    from repro.errors import CampaignSpecError

    try:
        document = load_document(args.path)
    except CampaignSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    schema = document.get("schema", SPEC_SCHEMA)
    if schema == IMPORTANCE_SCHEMA:
        problems = validate_importance_document(document)
        if problems:
            for problem in problems[:20]:
                print(f"{args.path}: {problem}", file=sys.stderr)
            return 1
        print(f"{args.path}: {IMPORTANCE_SCHEMA} OK "
              f"({len(document['components'])} component(s), "
              f"{document['cells']} cells)")
        return 0
    try:
        matrix = expand(parse_spec(document))
    except CampaignSpecError as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.path}: {SPEC_SCHEMA} OK ({len(matrix.cells)} cell(s))")
    return 0


def _cmd_trace_validate(args) -> int:
    from repro.obs import validate_stream

    records = _load_trace(args.path)
    if records is None:
        return 1
    problems = validate_stream(records)
    if problems:
        for problem in problems[:20]:
            print(problem, file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        return 1
    print(f"{args.path}: {len(records)} records, schema OK")
    return 0


#: One line per subcommand, rendered into ``repro --help``'s epilog.
#: A test asserts every registered subcommand appears here, so adding a
#: command without a summary fails fast.
_COMMAND_SUMMARY: tuple[tuple[str, str], ...] = (
    ("fig1", "analytic batching model (Figure 1)"),
    ("fig2", "VM client flip at 20 kRPS (Figure 2)"),
    ("fig4a", "SET 16KiB load sweep (Figure 4a)"),
    ("fig4b", "95:5 SET:GET mix sweep (Figure 4b)"),
    ("run", "one benchmark run with explicit knobs"),
    ("faults", "chaos sweep: robustness vs fault intensity"),
    ("fanin", "N clients -> 1 server, optionally sharded"),
    ("bottleneck", "N flows x 1 shared link, windowed cross-shard"),
    ("ablation", "run one named ablation study"),
    ("profile", "cProfile a bench shape (repro-profile-v1)"),
    ("diagnose", "fault diagnosis over a trace (repro-diagnosis-v1)"),
    ("trace", "summarize/filter/validate repro-trace-v1"),
    ("campaign", "declarative ablation campaigns (repro-campaign-v1)"),
)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    width = max(len(name) for name, _ in _COMMAND_SUMMARY)
    epilog = "commands:\n" + "\n".join(
        f"  {name:<{width}}  {summary}" for name, summary in _COMMAND_SUMMARY
    ) + "\n\nrun `repro <command> --help` for each command's options"
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batching with End-to-End Performance Estimation — "
                    "experiment runner",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("fig1", help="Figure 1: analytic batching model")
    p_fig1.add_argument("--c", type=float, nargs="+", default=[1.0, 3.0, 5.0],
                        help="client costs to evaluate")
    p_fig1.set_defaults(func=_cmd_fig1)

    p_fig2 = sub.add_parser("fig2", help="Figure 2: VM client flip at 20 kRPS")
    p_fig2.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p_fig2.add_argument("--trace", default=None, metavar="PATH",
                        help="record the campaign as repro-trace-v1 JSONL "
                             "(forces serial execution)")
    _add_measure(p_fig2, 150)
    _add_workers(p_fig2)
    _add_supervise(p_fig2)
    _add_diagnose(p_fig2)
    p_fig2.set_defaults(func=_cmd_fig2)

    for name, helptext, fn in (
        ("fig4a", "Figure 4a: SET 16KiB load sweep", _cmd_fig4a),
        ("fig4b", "Figure 4b: 95:5 SET:GET mix", _cmd_fig4b),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--rates", type=float, nargs="+", default=None)
        p.add_argument("--quick", action="store_true",
                       help="coarse grid for a fast look")
        _add_measure(p, 100)
        _add_workers(p)
        _add_supervise(p)
        p.set_defaults(func=fn)

    p_run = sub.add_parser("run", help="one benchmark run")
    p_run.add_argument("--rate", type=float, required=True)
    p_run.add_argument("--nagle", action="store_true")
    p_run.add_argument("--nagle-mode", choices=["classic", "minshall"],
                       default="classic")
    p_run.add_argument("--autocork", action="store_true")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--set-ratio", type=float, default=1.0)
    p_run.add_argument("--value-bytes", type=int, default=16 * 1024)
    p_run.add_argument("--warmup-ms", type=int, default=40)
    p_run.add_argument("--client-cpu-factor", type=float, default=1.0,
                       help="VM-style client cost multiplier (Figure 2)")
    p_run.add_argument("--connections", type=int, default=1)
    p_run.add_argument("--dump-counters", action="store_true",
                       help="print the full counter dump (ethtool analogue)")
    p_run.add_argument("--fault-plan", default=None,
                       help="inject a named fault plan (see `repro faults`)")
    p_run.add_argument("--fault-intensity", type=float, default=1.0,
                       help="intensity multiplier for --fault-plan "
                            "(default 1.0; 0 disables)")
    p_run.add_argument("--min-rto-ms", type=int, default=200,
                       help="TCP retransmission-timeout floor (default "
                            "200, Linux-like; lossy fault plans want ~5 "
                            "or one burst stalls past the whole window)")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="record a repro-trace-v1 JSONL of the run")
    p_run.add_argument("--deep", action="store_true",
                       help="with --trace: also trace per-socket protocol "
                            "hooks (send/segment/ack/read), many records")
    p_run.add_argument("--toggler", action="store_true",
                       help="attach the estimate-fed epsilon-greedy Nagle "
                            "toggler (sec. 5), starting with Nagle off; "
                            "its decisions go into --trace")
    p_run.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a repro-metrics-v1 JSON snapshot")
    _add_measure(p_run, 120)
    _add_supervise(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_faults = sub.add_parser(
        "faults",
        help="chaos sweep: estimator/toggler robustness vs fault intensity",
    )
    from repro.faults import FAULT_PLANS

    p_faults.add_argument("--plan", choices=sorted(FAULT_PLANS),
                          default="mixed")
    p_faults.add_argument("--intensities", type=float, nargs="+", default=None,
                          help="intensity multipliers (0 = fault-free)")
    p_faults.add_argument("--rate", type=float, default=15_000.0)
    p_faults.add_argument("--seed", type=int, default=1)
    p_faults.add_argument("--json", default=None, metavar="PATH",
                          help="write the repro-robustness-v1 metrics "
                               "JSON to this path")
    p_faults.add_argument("--quick", action="store_true",
                          help="two intensities only, for CI smoke")
    p_faults.add_argument("--quiet", action="store_true",
                          help="suppress per-intensity progress on stderr")
    p_faults.add_argument("--trace", default=None, metavar="PATH",
                          help="record the sweep as repro-trace-v1 JSONL")
    _add_measure(p_faults, 300)
    p_faults.set_defaults(func=_cmd_faults)

    p_fanin = sub.add_parser(
        "fanin",
        help="A10 fan-in: N clients -> 1 server, optionally sharded "
             "across workers",
    )
    p_fanin.add_argument("--clients", type=int, default=4,
                         help="number of client machines (default 4)")
    p_fanin.add_argument("--rate", type=float, default=48_000.0,
                         help="total offered load across all clients "
                              "(default 48000)")
    p_fanin.add_argument("--nagle", action="store_true",
                         help="static Nagle on for every connection")
    p_fanin.add_argument("--seed", type=int, default=1)
    p_fanin.add_argument("--warmup-ms", type=int, default=40)
    p_fanin.add_argument("--toggler", action="store_true",
                         help="attach the spanning dynamic toggler "
                              "(monolithic mode only)")
    p_fanin.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N",
        help="run the decomposed model: each connection as an isolated "
             "sub-simulation with its own server replica, partitioned "
             "into N shards and merged deterministically; output is "
             "byte-identical for every N (including N=1). 'auto' uses "
             "one shard per CPU. Omit for the monolithic shared-server "
             "model",
    )
    p_fanin.add_argument("--json", default=None, metavar="PATH",
                         help="write the result as canonical unversioned "
                              "JSON (byte-diffable across shard/worker "
                              "counts)")
    _add_measure(p_fanin, 150)
    _add_workers(p_fanin)
    _add_supervise(p_fanin)
    p_fanin.set_defaults(func=_cmd_fanin)

    p_bottleneck = sub.add_parser(
        "bottleneck",
        help="shared-bottleneck contention: N flows x one link, run on "
             "the conservative windowed cross-shard engine",
    )
    p_bottleneck.add_argument("--flows", type=int, default=4,
                              help="number of sender/receiver pairs "
                                   "contending on the link (default 4)")
    p_bottleneck.add_argument("--rate", type=float, default=8_000.0,
                              help="total offered load across all flows "
                                   "(default 8000)")
    p_bottleneck.add_argument("--nagle", action="store_true",
                              help="static Nagle on for every connection")
    p_bottleneck.add_argument("--seed", type=int, default=1)
    p_bottleneck.add_argument("--warmup-ms", type=int, default=40)
    p_bottleneck.add_argument("--json", default=None, metavar="PATH",
                              help="write the result as canonical "
                                   "unversioned JSON (byte-diffable)")
    p_bottleneck.add_argument("--trace", default=None, metavar="PATH",
                              help="record shard.window barrier records "
                                   "as repro-trace-v1 JSONL")
    _add_measure(p_bottleneck, 150)
    _add_supervise(p_bottleneck)
    p_bottleneck.set_defaults(func=_cmd_bottleneck)

    p_ablation = sub.add_parser("ablation", help="run one ablation by name")
    p_ablation.add_argument(
        "which",
        choices=["units", "toggler", "exchange", "ewma", "aimd", "variants",
                 "timevarying"],
    )
    _add_measure(p_ablation, 150)
    _add_workers(p_ablation)
    _add_supervise(p_ablation)
    p_ablation.set_defaults(func=_cmd_ablation)

    p_profile = sub.add_parser(
        "profile",
        help="cProfile one bench shape, emitting repro-profile-v1 JSON",
    )
    p_profile.add_argument(
        "--shape", choices=["fig2", "faults"], default="fig2",
        help="what to profile: the Figure 2 VM point or the mixed-faults "
             "run (default fig2)",
    )
    p_profile.add_argument("--top", type=int, default=25,
                           help="functions to keep, by cumulative time "
                                "(default 25)")
    p_profile.add_argument("--seed", type=int, default=None)
    p_profile.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON here instead of stdout")
    p_profile.add_argument(
        "--validate", default=None, metavar="PATH",
        help="validate an existing repro-profile-v1 JSON instead of "
             "profiling (used by the CI docs/schema check)",
    )
    _add_measure(p_profile, 80)
    p_profile.set_defaults(func=_cmd_profile)

    p_diagnose = sub.add_parser(
        "diagnose",
        help="streaming fault diagnosis over a repro-trace-v1 stream: "
             "per-connection limit labels and typed misbehavior findings",
    )
    p_diagnose.add_argument("path", help="JSONL trace file (a finished "
                                         "trace, or a growing one with "
                                         "--follow)")
    p_diagnose.add_argument("--json", default=None, metavar="PATH",
                            help="write the repro-diagnosis-v1 report as "
                                 "canonical JSON ('-' for stdout)")
    p_diagnose.add_argument("--follow", action="store_true",
                            help="tail a live trace: poll for appended "
                                 "records and diagnose as they arrive, "
                                 "finishing after --idle-timeout of silence")
    p_diagnose.add_argument("--poll", type=float, default=0.5,
                            metavar="SECONDS",
                            help="--follow poll interval (default 0.5)")
    p_diagnose.add_argument("--idle-timeout", type=float, default=10.0,
                            metavar="SECONDS",
                            help="--follow gives up after this much "
                                 "silence (default 10)")
    p_diagnose.add_argument("--quiet", action="store_true",
                            help="suppress --follow progress on stderr")
    p_diagnose.add_argument("--validate", action="store_true",
                            help="check the generated report against the "
                                 "repro-diagnosis-v1 schema instead of "
                                 "printing it")
    p_diagnose.add_argument("--expect-clean", action="store_true",
                            help="exit 1 if the diagnosis contains any "
                                 "finding (golden-trace regression gate)")
    p_diagnose.add_argument("--score", default=None, metavar="PATH",
                            help="score findings against the labeled "
                                 "fault episodes in a repro-robustness-v1 "
                                 "JSON (from `repro faults --json`)")
    p_diagnose.add_argument("--min-recall", type=float, default=None,
                            help="with --score: exit 1 if any class's "
                                 "recall is below this, or any finding "
                                 "is unexplained")
    p_diagnose.set_defaults(func=_cmd_diagnose)

    p_trace = sub.add_parser(
        "trace",
        help="summarize, filter, or validate repro-trace-v1 streams",
        description="Summarize, filter, or validate repro-trace-v1 "
                    "streams.  Record one with --trace PATH on run, "
                    "fig2, faults, bottleneck or campaign run.",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_summarize = trace_sub.add_parser(
        "summarize", help="counts by record type and source, time span"
    )
    p_summarize.add_argument("path", help="JSONL trace file")
    p_summarize.set_defaults(func=_cmd_trace_summarize)

    p_filter = trace_sub.add_parser(
        "filter", help="print records matching type/src/time criteria"
    )
    p_filter.add_argument("path", help="JSONL trace file")
    p_filter.add_argument("--type", default=None,
                          help="record type, e.g. toggler.decision")
    p_filter.add_argument("--src", default=None,
                          help="record source, e.g. redis.0.client")
    p_filter.add_argument("--since-ns", type=int, default=None)
    p_filter.add_argument("--until-ns", type=int, default=None)
    p_filter.add_argument("--limit", type=int, default=None,
                          help="stop after this many records")
    p_filter.set_defaults(func=_cmd_trace_filter)

    p_validate = trace_sub.add_parser(
        "validate", help="check a stream against the repro-trace-v1 schema"
    )
    p_validate.add_argument("path", help="JSONL trace file")
    p_validate.set_defaults(func=_cmd_trace_validate)

    p_campaign = sub.add_parser(
        "campaign",
        help="declarative ablation campaigns: run, expand, or validate a "
             "repro-campaign-v1 spec (see docs/CAMPAIGNS.md)",
    )
    campaign_sub = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    p_crun = campaign_sub.add_parser(
        "run",
        help="execute a spec's full run matrix and print the "
             "component-importance leaderboard",
    )
    p_crun.add_argument("spec", help="campaign spec file (JSON always; "
                                     ".yaml/.yml when pyyaml is installed)")
    p_crun.add_argument("--json", default=None, metavar="PATH",
                        help="write the repro-importance-v1 report as "
                             "canonical JSON ('-' for stdout); byte-"
                             "identical across reruns of the same spec")
    p_crun.add_argument("--trace", default=None, metavar="PATH",
                        help="record the campaign as repro-trace-v1 JSONL "
                             "(forces serial execution)")
    p_crun.add_argument("--measure-ms", type=int, default=None,
                        help="override the spec's measurement window in "
                             "simulated ms (replaces base measure_ms/"
                             "measure_ns; default: use the spec's)")
    _add_workers(p_crun)
    _add_supervise(p_crun)
    _add_diagnose(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cexpand = campaign_sub.add_parser(
        "expand",
        help="print a spec's deterministic run matrix without executing it",
    )
    p_cexpand.add_argument("spec", help="campaign spec file")
    p_cexpand.add_argument("--json", default=None, metavar="PATH",
                           help="write the matrix as canonical JSON ('-' "
                                "for stdout) instead of the cell listing")
    p_cexpand.set_defaults(func=_cmd_campaign_expand)

    p_cvalidate = campaign_sub.add_parser(
        "validate",
        help="check a repro-campaign-v1 spec or repro-importance-v1 "
             "report (auto-detected by its schema field)",
    )
    p_cvalidate.add_argument("path", help="spec or report file")
    p_cvalidate.set_defaults(func=_cmd_campaign_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A library error (a rejected config such as a negative rate or
        # no clients, a campaign whose runs kept failing) is reported as
        # one line, not a traceback.
        return _refuse(str(exc))
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`).
        import os

        os.close(sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # ^C mid-campaign: no traceback.  The checkpoint store fsyncs
        # every record as it lands, so everything completed before the
        # interrupt is durable and a rerun resumes from it.
        print("\ninterrupted", file=sys.stderr)
        store = getattr(args, "cache_dir", None)
        if store:
            print(
                f"hint: completed runs are checkpointed in {store}; "
                f"re-run the same command to resume from them",
                file=sys.stderr,
            )
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
