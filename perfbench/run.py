"""The repository's benchmark: one workload, end to end or per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_point [--seed N]
                             [--seconds 20] [--trace 0|1]

The load model is a closed loop with one caller: a run starts only
after the previous one returned.  Each untraced run is a forked child
of this process, which has imported ``repro`` and never runs the
workload itself, so every run starts from the same state and its own
peak memory can be read.  Only ``bottleneck_2w`` starts pool workers,
two of them.  Inside each simulation the clients are open-loop Poisson
at the workload's rate.  Runs cycle through the sub-seeds of
``--seed`` (``workloads.SUBSEEDS``), each twice in a row.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics (``setup_s``, ``run_s``, ``peak_rss_mb``).
``--trace 1`` alternates untraced runs with runs under the per-layer
ledger (``ledger.py``, in this process) and reports the per-layer
metrics.  Every run's result is digested and checked: against the
stored digests at the workload's default seed (``expected.json``),
against the first run of its sub-seed at any other seed, and against
the untraced digest for traced runs.  A run that raises or mismatches
counts as failed.  Human-readable lines come first; the last line of
standard output is the JSON result.
``--write-expected`` re-records ``expected.json`` after an intentional
semantic change.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
SETUPS = 9

#: End-to-end metrics (``--trace 0``), as declared in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

#: Layers whose scheduled callbacks are counted.
CALLBACK_LAYERS = (
    "sim", "net", "tcp", "host", "apps", "core", "analysis", "loadgen",
    "faults", "other",
)

#: Per-layer metrics (``--trace 1``), as declared in BENCHMARK.json.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.scheduled", "count"),
    ("sim.cancelled_frac", "ratio"),
    ("sim.kernel_eps", "1/s"),
    ("net.wire_packets", "count"),
    ("net.tso_splits", "count"),
    ("net.gro_merges", "count"),
    ("net.packet_acquires", "count"),
    ("net.packet_recycles", "count"),
    ("tcp.segments_sent", "count"),
    ("tcp.retransmits", "count"),
    ("tcp.retransmit_frac", "ratio"),
    ("host.server_app_util", "ratio"),
    ("host.server_net_util", "ratio"),
    ("apps.requests", "count"),
    ("apps.server_mean_batch", "count"),
    ("core.track_calls", "count"),
    ("core.exchanges", "count"),
    ("core.estimate_err_pct", "%"),
    ("analysis.samples", "count"),
    ("faults.drops", "count"),
    ("sim.sync.windows", "count"),
    ("sim.sync.exchanged_events", "count"),
    ("sim.sync.wait_s", "s"),
    ("sim.sync.payload_bytes", "B"),
    ("parallel.jobs", "count"),
    ("parallel.retries", "count"),
    ("parallel.worker_peak_rss_mb", "MB"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.traced_wall_s", "s"),
) + tuple(
    (f"{layer}.self_s", "s")
    for layer in (
        "sim", "net", "tcp", "host", "apps", "core", "analysis", "loadgen",
        "faults", "sim.sync", "parallel", "other",
    )
) + tuple((f"{layer}.callbacks", "count") for layer in CALLBACK_LAYERS)


def _import_repro() -> None:
    """Make the checkout's ``repro`` importable, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)


def kernel_eps(events: int = 100_000, reps: int = 3) -> float:
    """Median chained-timer rate of the bare event kernel, events/s —
    the machine-speed reference printed beside every result."""
    from repro.sim.loop import Simulator

    def chained() -> float:
        sim = Simulator()
        fired = [0]

        def tick():
            fired[0] += 1
            if fired[0] < events:
                sim.call_after(10, tick)

        sim.call_after(10, tick)
        start = time.perf_counter()
        sim.run()
        return events / (time.perf_counter() - start)

    return statistics.median(chained() for _ in range(reps))


class Checker:
    """Failure accounting: a run fails if it raised, if its digest
    differs from the expected one for its sub-seed, or if
    ``REPRO_BACKEND`` is set (an inherited backend would silently change
    the execution path).

    For a sub-seed with no stored digest the first run's digest becomes
    the expected one, so every repetition must still agree.
    """

    def __init__(self, expected: dict[int, str] | None = None,
                 environ=os.environ):
        self.expected = dict(expected or {})
        self.backend_env = environ.get("REPRO_BACKEND")
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> bool:
        """Count one failure (of a run already counted as attempted)."""
        self.failed += 1
        if reason not in self.reasons:
            self.reasons.append(reason)
        return False

    def check(self, digest: str, index: int = 0) -> bool:
        """Account one finished run of sub-seed ``index``; True if it
        passed."""
        self.attempted += 1
        expected = self.expected.setdefault(index, digest)
        if self.backend_env:
            return self.fail(f"REPRO_BACKEND={self.backend_env} is set")
        if digest != expected:
            return self.fail(
                f"sub-seed {index}: digest {digest[:16]} "
                f"!= expected {expected[:16]}"
            )
        return True

    def error(self, exc: BaseException) -> None:
        """Account one run that raised."""
        self.attempted += 1
        self.fail(f"{type(exc).__name__}: {exc}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Speed:
    """Chains calibrations around timed work (see ``calibrate.py``).

    Garbage left by the work is collected before each calibration, so
    the calibration sees the machine, not the heap, and the next timed
    run and its peak memory do not carry the last one's garbage.
    """

    def __init__(self):
        self._last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        from calibrate import calibration_s

        gc.collect()
        return calibration_s()

    def rescale(self) -> float:
        """Calibrate again; the scale for the work since the last one."""
        from calibrate import speed_scale

        after = self._calibrate()
        scale = speed_scale(self._last, after)
        self._last = after
        return scale


class ChildFailed(RuntimeError):
    """A forked run raised, or its process died without a result."""


def in_child(fn):
    """``fn()`` in a forked child: its value, the child's peak RSS and
    its own children's peak RSS (MB).  Modules the child imported are
    then imported here, so later children start as warm as this one."""
    before = set(sys.modules)
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns from this block
        status = 1
        try:
            os.close(read)
            try:
                outcome = ("ok", fn())
            except Exception as exc:
                outcome = ("error", f"{type(exc).__name__}: {exc}")
            with os.fdopen(write, "wb") as out:
                pickle.dump(outcome + (
                    _rss_mb(resource.RUSAGE_SELF),
                    _rss_mb(resource.RUSAGE_CHILDREN),
                    sorted(set(sys.modules) - before),
                ), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise ChildFailed(f"run process ended with status {status}")
    kind, value, rss, children_rss, modules = pickle.loads(data)
    for name in modules:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    if kind == "error":
        raise ChildFailed(value)
    return value, rss, children_rss


class Reps:
    """Untraced runs, each in a forked child, cycling through the
    sub-seeds of one ``--seed`` (see ``workloads.SUBSEEDS``)."""

    def __init__(self, workload, seed: int, checker: Checker, speed: Speed):
        from workloads import SUBSEEDS, subseed

        self.workload = workload
        self.configs = [
            workload.config(subseed(seed, i)) for i in range(SUBSEEDS)
        ]
        self.checker = checker
        self.speed = speed
        self.count = 0
        self.index = 0
        self._referenced: set[int] = set()

    def run(self):
        """One untraced run of the next sub-seed; the Rep if it raised
        nothing and its digest checked out, else None.  The first visit
        of a sub-seed also checks its reference digest, untimed."""
        self.index = index = (self.count // 2) % len(self.configs)
        self.count += 1
        config = self.configs[index]
        if index not in self._referenced:
            self._referenced.add(index)
            try:
                reference, _, _ = in_child(
                    lambda: self.workload.reference_digest(config)
                )
            except ChildFailed as exc:
                self.checker.error(exc)
            else:
                if reference is not None:
                    self.checker.check(reference, index)
            self.speed.rescale()
        try:
            rep, rss, workers_rss = in_child(
                lambda: self.workload.run_once(config)
            )
        except ChildFailed as exc:  # a failed run is data, not a crash
            self.checker.error(exc)
            rep = None
        scale = self.speed.rescale()
        if rep is None or not self.checker.check(rep.digest, index):
            return None
        rep.scale, rep.index = scale, index
        rep.rss_mb, rep.worker_rss_mb = rss, workers_rss
        return rep


def setup_seconds(
    name: str, seed: int, speed: Speed, count: int = SETUPS
) -> list[tuple[float, float]]:
    """``count`` fresh-interpreter set-ups as (wall, scaled) seconds,
    each timed from process start to the probe's ``assembled`` line.
    One extra leading probe warms the bytecode cache and is dropped."""
    samples = []
    probe = os.path.join(HERE, "setup_probe.py")
    for index in range(count + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, name, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        scale = speed.rescale()
        if line.strip() != "assembled" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        if index:
            samples.append((elapsed, elapsed * scale))
    return samples


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def measure(runs: Reps, seconds: float) -> dict:
    """``--trace 0``: repeat untraced runs for ``seconds``."""
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        rep = runs.run()
        if rep is not None:
            reps.append(rep)
        if time.perf_counter() >= deadline:
            break
    return {"reps": reps}


def trace(runs: Reps, seconds: float) -> dict:
    """``--trace 1``: alternate untraced and traced runs for ``seconds``.

    A traced run repeats the sub-seed of the untraced run before it, in
    this process.  Its per-layer self times must sum to its wall time
    and, for in-process workloads, its tagged callbacks to the
    simulator's executed events; a violation fails the run.
    """
    from ledger import LAYERS, Ledger

    workload, checker, speed = runs.workload, runs.checker, runs.speed
    ledger = Ledger()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        rep = runs.run()
        if rep is not None:
            untraced.append(rep)
        ledger.reset()
        try:
            ledger.install()
            rep = workload.run_once(runs.configs[runs.index])
        except Exception as exc:
            checker.error(exc)
            rep = None
        finally:
            ledger.uninstall()
        speed.rescale()  # collects, and brackets the next untraced run
        if rep is not None and checker.check(rep.digest, runs.index):
            sample = _traced_sample(ledger, LAYERS, rep, workload, checker)
            if sample is not None:
                traced.append(sample)
        if time.perf_counter() >= deadline and untraced and traced:
            break
        if time.perf_counter() >= deadline + seconds:
            break  # nothing passes; give up with what we have
    if traced:
        os.makedirs(OUT, exist_ok=True)
        ledger.write_spans(os.path.join(OUT, f"{workload.name}.spans"))
    return {"reps": untraced, "traced": traced}


def _traced_sample(ledger, layers, rep, workload, checker: Checker):
    try:
        self_s = ledger.self_times(rep.wall_s)
    except ValueError as exc:
        checker.fail(f"span ledger: {exc}")
        return None
    if abs(sum(self_s.values()) - rep.wall_s) > 1e-6 * max(1.0, rep.wall_s):
        checker.fail("self times do not sum to the wall time")
        return None
    callbacks = dict(zip(layers, ledger.callbacks))
    tagged = sum(callbacks.values())
    if workload.in_process and tagged != rep.facts["sim.events"]:
        checker.fail(
            f"tagged callbacks {tagged} != sim.events {rep.facts['sim.events']}"
        )
        return None
    return {
        "rep": rep,
        "self_s": self_s,
        "callbacks": callbacks,
        "counts": {name: cell[0] for name, cell in ledger.counts.items()},
        "wait_s": ledger.wait_s[0],
        "spans": len(ledger.starts),
    }


def per_layer_metrics(result: dict, kernel: float) -> dict:
    """The ``--trace 1`` metric values, from the median traced run."""
    untraced = result["reps"]
    traced = sorted(result["traced"], key=lambda s: s["rep"].wall_s)
    chosen = traced[(len(traced) - 1) // 2]
    rep, counts = chosen["rep"], chosen["counts"]
    facts = dict(rep.facts)
    run_s = statistics.median(r.run_s for r in untraced)
    values = {
        "sim.events_per_s": facts.get("sim.events", 0) / run_s,
        "sim.scheduled": counts["sim.scheduled"],
        "sim.cancelled_frac": (
            counts["sim.cancelled"] / counts["sim.scheduled"]
            if counts["sim.scheduled"] else 0.0
        ),
        "sim.kernel_eps": kernel,
        "core.estimate_err_pct": rep.estimate_err_pct or 0.0,
        "sim.sync.wait_s": chosen["wait_s"],
        "parallel.worker_peak_rss_mb": max(
            r.worker_rss_mb for r in untraced
        ),
        "obs.trace_overhead_frac": (
            statistics.median(s["rep"].wall_s for s in traced)
            / statistics.median(r.wall_s for r in untraced) - 1
        ),
        "obs.traced_wall_s": rep.wall_s,
    }
    for name, count in counts.items():
        values.setdefault(name, count)
    for layer, seconds in chosen["self_s"].items():
        values[f"{layer}.self_s"] = seconds
    for layer, count in chosen["callbacks"].items():
        values[f"{layer}.callbacks"] = count
    for name, value in facts.items():
        if name in dict(PER_LAYER):
            values[name] = value
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def _load_expected() -> dict:
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    stored = _load_expected()
    if args.write_expected:
        return _write_expected(stored, WORKLOADS)

    expected = None
    if seed == workload.default_seed:
        expected = stored.get(workload.name, {}).get("digests")
        if expected is None:
            sys.exit(f"perfbench: no stored digests for {workload.name}")
        expected = dict(enumerate(expected))
    checker = Checker(expected)
    kernel = kernel_eps()
    workload.assemble(seed)  # imports what a run needs, before any fork
    speed = Speed()
    runs = Reps(workload, seed, checker, speed)
    if args.trace:
        result = trace(runs, args.seconds)
        ok = bool(result["reps"]) and bool(result["traced"])
    else:
        result = measure(runs, args.seconds)
        ok = bool(result["reps"])
    if not ok:
        print(f"perfbench: no run passed: {'; '.join(checker.reasons)}",
              file=sys.stderr)
        return 1

    reps = result["reps"]
    env = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": reps[0].facts.get("backend", "none"),
        "kernel_eps": kernel,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed_frac,
        "failures": checker.reasons,
        "subseeds": [r.index for r in reps],
        "run_s_wall_samples": [r.run_s for r in reps],
        "run_s_scales": [r.scale for r in reps],
        "peak_rss_mb_samples": [r.rss_mb for r in reps],
        "estimate_err_pct": reps[0].estimate_err_pct,
    }
    if args.trace:
        metrics = per_layer_metrics(result, kernel)
        units = dict(PER_LAYER)
        env["spans"] = result["traced"][-1]["spans"]
    else:
        setups = setup_seconds(workload.name, seed, speed)
        # The calibration is single-threaded compute.  A bottleneck_2w
        # run mostly waits on its workers, which it does not track:
        # scaling widened that run_s spread from 0.11 to 0.17-0.20.
        scale_runs = workload.in_process
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "run_s": statistics.median(
                r.run_s * (r.scale if scale_runs else 1.0) for r in reps
            ),
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
        units = dict(END_TO_END)
        env["setup_s_wall_samples"] = [wall for wall, _ in setups]
        env["setup_s_wall"] = statistics.median(env["setup_s_wall_samples"])
        env["run_s_wall"] = statistics.median(env["run_s_wall_samples"])
        env["worker_peak_rss_mb"] = max(r.worker_rss_mb for r in reps)
    _report(env, metrics, units)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(
        OUT, f"{workload.name}-seed{seed}-trace{args.trace}.json"
    )
    with open(record, "w") as handle:
        json.dump({"env": env, "metrics": metrics}, handle, indent=1)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _report(env: dict, metrics: dict, units: dict) -> None:
    print(
        f"perfbench {env['workload']} seed={env['seed']} "
        f"trace={env['trace']} python={env['python']} nproc={env['nproc']} "
        f"backend={env['backend']} kernel_eps={env['kernel_eps']:.0f}"
    )
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {env['failed_frac']:>14.6g} "
          f"({env['failed']}/{env['attempted']} runs)")
    for reason in env["failures"]:
        print(f"    failure: {reason}")
    if not env["trace"]:
        print(f"  {'run_s samples':<28} "
              f"{len(env['run_s_wall_samples']):>14d}")
        for name in ("setup_s_wall", "run_s_wall"):
            print(f"  {name + ' (unscaled)':<28} {env[name]:>14.6g} s")
        if env["estimate_err_pct"] is not None:
            print(f"  {'estimate_err_pct':<28} "
                  f"{env['estimate_err_pct']:>14.6g} %")
        if env["worker_peak_rss_mb"]:
            print(f"  {'worker_peak_rss_mb':<28} "
                  f"{env['worker_peak_rss_mb']:>14.6g} MB")


def _write_expected(stored: dict, workloads: dict) -> int:
    """Record each workload's digests at its default seed, one per
    sub-seed."""
    from workloads import SUBSEEDS, subseed

    for workload in workloads.values():
        digests = [
            workload.run_once(
                workload.config(subseed(workload.default_seed, i))
            ).digest
            for i in range(SUBSEEDS)
        ]
        stored[workload.name] = {
            "seed": workload.default_seed, "digests": digests,
        }
        print(f"{workload.name}: {' '.join(d[:16] for d in digests)}")
    with open(EXPECTED, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
