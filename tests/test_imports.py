"""What importing ``repro`` loads, and the lazy package-export contract.

Every package ``__init__`` resolves its public names on first access
(``repro._lazy``), and a run imports at set-up whatever it executes.  A
fresh interpreter that sets up a testbed the way the benchmark does
must therefore load none of the pool, supervisor, windowed-engine or
other figure-driver modules, nor the fault injector, the trace schema
and sinks or the report tables unless its run executes them, and must
import nothing new once the run starts.  A shared-bottleneck run
without a store calls its one job directly, so it loads no supervisor;
a serial supervised run (the bottleneck with a store, a one-worker
campaign) runs its jobs in-process, so it loads no process-pool module.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]

#: Every ``repro`` package that exports names.
PACKAGES = [
    name
    for name in ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )
    if hasattr(importlib.import_module(name), "__all__")
]

#: Modules a testbed run never executes, so its set-up must not load them.
NOT_AT_SETUP = (
    "repro.parallel", "repro.supervise", "repro.campaign", "repro.diagnose",
    "repro.sim.sync", "repro.sim.shard", "multiprocessing",
    "concurrent.futures", "subprocess",
)

#: Modules only a faulted, traced or rendering run executes.
DEFERRED = (
    "repro.faults.injector", "repro.obs.schema", "repro.obs.sinks",
    "repro.analysis.report", "repro._fields",
)

TESTBED = """
import json, sys
from dataclasses import replace

from repro.experiments.fig2 import fig2_config
from repro.faults import named_plan
from repro.loadgen import lancet
from repro.units import msecs

config = fig2_config(vm=True, nagle=True, seed=1)
if {plan!r}:
    config = replace(config, fault_plan=named_plan({plan!r}), connections=2)
config = replace(config, warmup_ns=msecs(2), measure_ns=msecs(6))
tracer = None
if {traced!r}:
    from repro.obs.tracer import Tracer

    tracer = Tracer()
modules = {{}}
lancet.run_benchmark(
    config, tracer=tracer,
    tweak=lambda bed: modules.update(setup=sorted(sys.modules)),
)
print(json.dumps({{"setup": modules["setup"], "run": sorted(sys.modules)}}))
"""


def fresh(script: str):
    """Run ``script`` in a new interpreter; the JSON of its last line."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "plan, traced, deferred",
    [
        (None, False, []),
        ("mixed", False, ["repro.faults.injector"]),
        (None, True, ["repro._fields", "repro.obs.schema", "repro.obs.sinks"]),
    ],
    ids=["clean", "faulted", "traced"],
)
def test_testbed_imports_at_setup_only_what_it_runs(plan, traced, deferred):
    # The script imports repro.faults.plan for named_plan itself, as the
    # benchmark's config does; the testbed loads the injector only for a
    # fault plan, and the trace schema and sinks only for a recording
    # tracer, and then at set-up.
    seen = fresh(TESTBED.format(plan=plan, traced=traced))
    setup = set(seen["setup"])
    assert sorted(setup.intersection(DEFERRED)) == deferred
    loaded = sorted(
        name for name in setup
        if any(name == n or name.startswith(n + ".") for n in NOT_AT_SETUP)
        or (
            name.startswith("repro.experiments.")
            and name != "repro.experiments.fig2"
        )
    )
    assert loaded == []
    assert sorted(set(seen["run"]) - setup) == []


#: What only supervision needs; a bottleneck run without a store loads none.
SUPERVISION = (
    "repro.parallel", "repro.supervise", "repro.obs.metrics", "traceback",
)


def test_storeless_bottleneck_loads_no_supervisor():
    seen = fresh("""
import json, sys

from repro.experiments.bottleneck import (
    BottleneckConfig, run_shared_bottleneck,
)
from repro.units import msecs

before = set(sys.modules)
result = run_shared_bottleneck(
    BottleneckConfig(flows=2, warmup_ns=msecs(2), measure_ns=msecs(4))
)
print(json.dumps({
    "loaded": sorted(sys.modules), "new": sorted(set(sys.modules) - before),
    "windows": result.windows,
}))
""")
    assert seen["windows"] > 1
    loaded = [
        name for name in seen["loaded"]
        if any(name == n or name.startswith(n + ".") for n in SUPERVISION)
    ]
    assert loaded == []
    assert [n for n in seen["new"] if n.startswith("repro.")] == [
        "repro.obs", "repro.obs.tracer", "repro.sim.shard",
    ]


#: What only a process pool needs; a serial supervised run loads none.
POOL = ("concurrent.futures", "multiprocessing", "subprocess", "logging")

SERIAL = """
import json, sys, tempfile
from dataclasses import replace

from repro.experiments.bottleneck import (
    BottleneckConfig, run_shared_bottleneck,
)
from repro.experiments.fig2 import fig2_config
from repro.parallel import run_campaign
from repro.supervise import CheckpointStore
from repro.units import msecs

with tempfile.TemporaryDirectory() as directory:
    store = CheckpointStore(directory)
    run_shared_bottleneck(
        BottleneckConfig(flows=2, warmup_ns=msecs(2), measure_ns=msecs(4)),
        checkpoint=store,
    )
    after_bottleneck = sorted(sys.modules)
    bottleneck_stored = store.stores
config = replace(
    fig2_config(vm=True, nagle=True, seed=1),
    warmup_ns=msecs(2), measure_ns=msecs(4),
)
with tempfile.TemporaryDirectory() as directory:
    store = CheckpointStore(directory)
    results = run_campaign(
        [config, replace(config, seed=2)], workers=1, checkpoint=store
    )
    stored = store.stores
print(json.dumps({
    "bottleneck": after_bottleneck, "campaign": sorted(sys.modules),
    "bottleneck_stored": bottleneck_stored,
    "results": len(results), "stored": stored,
}))
"""


def test_serial_supervised_runs_load_no_pool():
    # A checkpointed shared-bottleneck run and a one-worker checkpointed
    # campaign run every job in this process: the pool's modules stay
    # unloaded.
    seen = fresh(SERIAL)
    assert seen["bottleneck_stored"] == 1
    assert (seen["results"], seen["stored"]) == (2, 2)
    for stage in ("bottleneck", "campaign"):
        loaded = [
            name for name in seen[stage]
            if any(name == n or name.startswith(n + ".") for n in POOL)
        ]
        assert loaded == [], stage


def test_readme_quickstart_form_in_a_fresh_interpreter():
    seen = fresh("""
import json, sys
import repro
listed = sorted(set(repro.__all__) - set(dir(repro)))
from repro import QueueState, get_avgs
now = [0]
qs = QueueState(lambda: now[0])
before = qs.snapshot()
qs.track(+3)
now[0] = 1_000
qs.track(-3)
avgs = get_avgs(before, qs.snapshot())
print(json.dumps({
    "unlisted": listed,
    "latency_ns": avgs.latency_ns,
    "loaded": sorted(m for m in sys.modules if m.startswith("repro.")),
}))
""")
    assert seen["unlisted"] == []
    assert seen["latency_ns"] == 1_000
    # Two names from the top-level package load their own modules only.
    assert "repro.sim.loop" not in seen["loaded"]
    assert "repro.tcp.socket" not in seen["loaded"]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_once_to_its_defining_object(name, monkeypatch):
    package = importlib.import_module(name)
    table = package._EXPORTS
    assert [n for n in package.__all__ if n not in table] == (
        ["__version__"] if name == "repro" else []
    )
    listing = dir(package)
    for export in package.__all__:
        assert export in listing
        value = getattr(package, export)
        if export in table:
            defining = importlib.import_module(table[export], name)
            assert value is getattr(defining, export)
        assert vars(package)[export] is value

    def second_lookup(attr):
        raise AssertionError(f"{name}.{attr} was looked up again")

    monkeypatch.setattr(package, "__getattr__", second_lookup)
    for export in package.__all__:
        getattr(package, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_names_fail_as_on_any_module(name):
    package = importlib.import_module(name)
    with pytest.raises(
        AttributeError,
        match=f"module '{name}' has no attribute 'no_such_export'",
    ):
        package.no_such_export
    assert not hasattr(package, "no_such_export")
    with pytest.raises(ImportError, match="cannot import name 'no_such_export'"):
        exec(f"from {name} import no_such_export", {})
