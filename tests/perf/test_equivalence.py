"""Golden-digest equivalence: the optimization pass changes nothing.

The digests below were captured on the tree *before* the PR-5 hot-path
optimization pass (``python tests/perf/golden.py`` on the pre-PR
checkout).  Every optimization since — ``__slots__``, trace-emit
guards, the TRACK fast path, closure elimination, the result cache —
must keep every one of them identical: same RunResult tree byte for
byte, same trace stream, instrumentation off and on.

If a digest legitimately needs to change (an intentional semantic
change to the pipeline, not an optimization), refresh with
``PYTHONPATH=src python tests/perf/golden.py`` and say so in the
commit message.
"""

from __future__ import annotations

import pytest

from tests.perf.golden import (
    digest,
    equivalence_configs,
    experiment_shapes,
    run_experiment,
    run_experiment_sharded,
    run_dense,
    run_instrumented,
    run_plain,
)

# Captured pre-optimization (PR 5 seed tree, 2026-08-05).
GOLDEN = {
    "fig2_vm_nagle": {
        "result": "7c426136c4fc10fd191e15a252290bc9383169a71cbc4ca47c604ee68b483b8f",
        "result_instrumented": "7c426136c4fc10fd191e15a252290bc9383169a71cbc4ca47c604ee68b483b8f",
        "trace": "c171cfb9bde2a5d6908657420eee0b95388871e19a24a18f8cbf7d58c957cdce",
    },
    "fig4a_35k": {
        "result": "51afa5fc968bf064349bf5eeba8a4b7fe4a81439bec5cfae7af350dfba7a307e",
        "result_instrumented": "51afa5fc968bf064349bf5eeba8a4b7fe4a81439bec5cfae7af350dfba7a307e",
        "trace": "e5ec276e29265fb02fdce5983152928d087ed6beae3de0df31d2043346e08929",
    },
    "faults_mixed": {
        "result": "2f46cde8e3d2e85d376f6cf89ee12c2a837f3008e59cab6fe01ba3245f517495",
        "result_instrumented": "2f46cde8e3d2e85d376f6cf89ee12c2a837f3008e59cab6fe01ba3245f517495",
        "trace": "e432ec3196c642d09c44accdf5ec0002a986e16725e65999b48391dcf6cbad33",
    },
}


#: Experiment-shape digests (see golden.experiment_shapes), captured
#: when counter samples were still dataclass objects.  The column
#: pipeline — and for the fan-in, every shard count — must reproduce
#: them byte for byte.  ``faults_chaos``, ``fanin_4c_toggler`` and
#: ``decomposition`` were captured before the §3.2 estimate paths were
#: folded into one snapshot triple, one combine and one toggler
#: builder; ``faults_chaos`` retransmits, so the retransmit-timer fix
#: re-records it with the fault goldens.
GOLDEN_EXPERIMENTS = {
    "fanin_4c": "63111f14594cfef073cec57670a98087dd4f3593c89cce8898c2f064ee6377b4",
    "timevarying_walk": "9e85822afa05a262befcbde6bbca0f81e1f737b54d8307a30aacde38738397ca",
    "bottleneck_4f": "94dc1230dd16d9f2fccd62f8c94d9a260cc5ecf75156c92aa74b08e254abae6e",
    "faults_chaos": "7a0b94d863984013d010c7313ea8d8516877c3a03db23328bbddf4f7ba852874",
    "fanin_4c_toggler": "7b93e8f264497e3d7bc181aea1b3d994759e36eb70ead7bece3d3635cb2be701",
    "decomposition": "d6dfdfd6e07448278c39dfb3d87b61934bfb54c0f5f0730bb32882de1c2e36ba",
}

#: The decomposed (sharded) fan-in model — a different scenario from the
#: monolithic fanin_4c (per-connection server replicas), pinned once and
#: required identical for every shard count.
GOLDEN_FANIN_SHARDED = (
    "4a015db3cf0c7595a7461a32d25c822653cd3791dc6ea3e08101489675f3ad5c"
)


#: The ``dense_4c`` shape (see golden.dense_config): the instrumented
#: trace (25,136 records, 16,016 of them ``queue.sample``), every
#: collector's materialized samples, and the post-run counter dump.
#: Captured while each counter tick still folded every queue and stored
#: its row, before sampled queues logged their changes instead.
GOLDEN_DENSE = {
    "trace": "7d1715e2295c31f0532300671f4434fe411c66d20455d294585028eba3ff8ffa",
    "samples": "946035906add82b536b4e416b3c505956ba8de799583dfec3e565eb498483839",
    "dump": "a594ff3f83345f8f70b46f06b4e2f48c5d02c5e928e31ef83bc53b0db30cb330",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plain_run_matches_pre_pr_golden(name):
    config = equivalence_configs()[name]
    assert digest(run_plain(config)) == GOLDEN[name]["result"]


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_shape_matches_golden(name):
    """Fan-in, time-varying, bottleneck, chaos-sweep and A11 runs
    reproduce their pinned digests."""
    assert digest(run_experiment(name)) == GOLDEN_EXPERIMENTS[name]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_fanin_is_shard_count_invariant(shards):
    """The decomposed fan-in digest is identical for every partition,
    in process and on a worker pool."""
    for workers in (1, 2):
        result = run_experiment_sharded("fanin_4c", shards, workers)
        assert digest(result) == GOLDEN_FANIN_SHARDED, workers
    assert result.to_json()  # canonical JSON stays serializable


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_bottleneck_is_partition_and_pool_invariant(shards, workers):
    """The shared-bottleneck run reproduces its golden for every
    (shards, workers) it is given: the coupled run is one in-process
    job, and run_shared_bottleneck accepts both and ignores them."""
    result = run_experiment_sharded("bottleneck_4f", shards, workers)
    assert digest(result) == GOLDEN_EXPERIMENTS["bottleneck_4f"]
    assert result.to_json()  # canonical JSON stays serializable


@pytest.mark.parametrize("shards", [1, 2])
def test_fanin_campaign_skips_windowed_engine(shards, monkeypatch):
    """The decomposed fan-in is a plain supervised campaign: it never
    enters the windowed engine and reproduces the sharded golden."""
    from repro.experiments.fanin import run_fanin_sharded

    def engine(*args, **kwargs):
        raise AssertionError("the fan-in entered the windowed engine")

    monkeypatch.setattr("repro.sim.sync.run_windowed", engine)
    monkeypatch.setattr("repro.sim.sync._run_group", engine)
    result = run_fanin_sharded(experiment_shapes()["fanin_4c"], shards=shards)
    assert digest(result) == GOLDEN_FANIN_SHARDED


def test_experiment_shapes_cover_issue_scope():
    """Every experiment shape is digest-covered."""
    assert set(experiment_shapes()) == set(GOLDEN_EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instrumented_run_matches_pre_pr_golden(name):
    """Tracing on must neither perturb the result nor its own stream."""
    config = equivalence_configs()[name]
    result, records = run_instrumented(config)
    assert digest(result) == GOLDEN[name]["result_instrumented"]
    assert digest(records) == GOLDEN[name]["trace"]


@pytest.mark.parametrize("traced", [False, True])
def test_dense_sampling_matches_golden(traced):
    """Dense counter sampling reproduces its samples, its post-run queue
    states and, traced, its trace stream."""
    expected = dict(GOLDEN_DENSE)
    if not traced:
        del expected["trace"]
    assert run_dense(traced) == expected


def test_instrumentation_is_invisible_to_results():
    """The committed goldens themselves: tracing never changes a result."""
    for name, golden in GOLDEN.items():
        assert golden["result"] == golden["result_instrumented"], name


# ---------------------------------------------------------------------------
# Result cache: hits replay byte-identically, misses/stores are counted.
# ---------------------------------------------------------------------------


def test_cache_hit_replay_is_byte_identical(tmp_path):
    """A cache hit is the *same bytes* as running the config fresh."""
    from repro.supervise import CheckpointStore
    from repro.parallel import run_campaign

    config = equivalence_configs()["fig2_vm_nagle"]

    cache = CheckpointStore(tmp_path / "cache")
    (first,) = run_campaign([config], checkpoint=cache)
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    cache.close()

    # A fresh cache object over the same directory: a different
    # "experiment" replaying the same config from disk.
    replay_cache = CheckpointStore(tmp_path / "cache")
    (replayed,) = run_campaign([config], checkpoint=replay_cache)
    assert (replay_cache.hits, replay_cache.misses) == (1, 0)
    replay_cache.close()

    fresh_digest = digest(run_plain(config))
    assert digest(first) == fresh_digest
    assert digest(replayed) == fresh_digest
    assert fresh_digest == GOLDEN["fig2_vm_nagle"]["result"]


def test_within_campaign_dedupe_runs_each_key_once(tmp_path):
    """Duplicate configs in one campaign run once and share the result."""
    from repro.supervise import CheckpointStore
    from repro.parallel import ParallelRunner

    config = equivalence_configs()["fig2_vm_nagle"]
    cache = CheckpointStore(tmp_path / "cache")
    runner = ParallelRunner(workers=1)
    outcomes = runner.run_many_outcomes(
        [config, config, config], checkpoint=cache
    )
    # One miss, one store: the two duplicates reused the primary's run
    # without touching the cache.
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    assert runner.last_metrics.counter("supervise.deduped").value == 2
    digests = {digest(outcome.result) for outcome in outcomes}
    assert digests == {GOLDEN["fig2_vm_nagle"]["result"]}
    cache.close()


def test_cross_experiment_reuse(tmp_path):
    """Two campaigns sharing a config share its result through the cache."""
    from repro.supervise import CheckpointStore
    from repro.parallel import run_campaign

    configs = equivalence_configs()
    shared = configs["fig2_vm_nagle"]
    other = configs["fig4a_35k"]

    cache = CheckpointStore(tmp_path / "cache")
    run_campaign([shared], checkpoint=cache)
    cache.close()

    # "Experiment two" overlaps experiment one in `shared` only.
    cache_two = CheckpointStore(tmp_path / "cache")
    shared_again, other_result = run_campaign(
        [shared, other], checkpoint=cache_two
    )
    assert (cache_two.hits, cache_two.misses, cache_two.stores) == (1, 1, 1)
    assert digest(shared_again) == GOLDEN["fig2_vm_nagle"]["result"]
    assert digest(other_result) == GOLDEN["fig4a_35k"]["result"]
    cache_two.close()


# ---------------------------------------------------------------------------
# Store keys: what each entry point writes into a result store.
# ---------------------------------------------------------------------------

#: The job keys each campaign entry point writes into a fresh store, in
#: record order.  A store is only useful to later runs whose keys match
#: it, so a changed key silently orphans every existing ``--cache-dir``
#: (each rerun misses and runs afresh, with unchanged output).  Captured
#: before the two result-store classes and the two supervised dispatch
#: paths of ``repro.parallel`` were folded into one.
GOLDEN_STORE_KEYS = {
    "run_campaign": [
        "7b42908afefa1b53214de25937932b7c41d6e742b11e3dfe08d4cf7dbac2988d",
        "c9cb94cc031ed183385ac6cd367bc882e8351fe494c204fc745b87b238bba0a5",
    ],
    "run_fanin_sharded": [
        "fanin-4a151f63a422fa885a8fe2b8c02ad17f86499419654b1ca24e7a97303361f040",
        "fanin-4ab171232abe7598a99e12ae90b968d683c9a4a4e39580408b70cade3572357c",
    ],
    "run_shared_bottleneck": [
        "sync-f7441cfe7d25947dccd4e10243a114ddb41ddd531c16fddf39ad9249775cd10b",
    ],
    "run_spec": [
        "68ce06ef1ade6687852e9220d357519d24e1d68f9ee76337ff3c7da1653a12c0",
        "97a81d2faed7ebdc73c6ac50904168c653899406ca3176870888bb523a462d7f",
    ],
}


def _write_store_keys(entry: str, store) -> None:
    """Run one entry point's pinned job(s) into ``store``."""
    from repro.units import msecs

    if entry == "run_campaign":
        from repro.parallel import run_campaign
        from repro.supervise import Watchdog

        configs = equivalence_configs()
        run_campaign([configs["fig2_vm_nagle"]], checkpoint=store)
        run_campaign(
            [configs["fig4a_35k"]], checkpoint=store,
            watchdog=Watchdog(max_events=10**9),
        )
    elif entry == "run_fanin_sharded":
        from repro.experiments.fanin import FaninConfig, run_fanin_sharded

        run_fanin_sharded(
            FaninConfig(clients=2, warmup_ns=msecs(5), measure_ns=msecs(10)),
            shards=2, checkpoint=store,
        )
    elif entry == "run_shared_bottleneck":
        from repro.experiments.bottleneck import (
            BottleneckConfig,
            run_shared_bottleneck,
        )

        run_shared_bottleneck(
            BottleneckConfig(
                flows=2, warmup_ns=msecs(5), measure_ns=msecs(10)
            ),
            checkpoint=store,
        )
    elif entry == "run_spec":
        from repro.campaign import CampaignSpec, ComponentSpec, run_spec

        run_spec(CampaignSpec(
            name="store-keys",
            base={"measure_ms": 10, "warmup_ms": 5, "rate_per_sec": 5000.0},
            components=(
                ComponentSpec("nagle", on={"nagle": True},
                              off={"nagle": False}),
            ),
            metrics=("latency_mean_ns",),
        ), checkpoint=store)
    else:
        raise KeyError(entry)


@pytest.mark.parametrize("entry", sorted(GOLDEN_STORE_KEYS))
def test_store_keys_match_golden(entry, tmp_path):
    """Every entry point keys its jobs as the stores on disk expect."""
    import json

    from repro.supervise import CheckpointStore

    store = CheckpointStore(tmp_path / "store")
    try:
        _write_store_keys(entry, store)
    finally:
        store.close()
    keys = [
        record["key"]
        for path in sorted((tmp_path / "store").glob("shard-*.jsonl"))
        for record in map(json.loads, path.read_text().splitlines())
        if record.get("kind") == "result"
    ]
    assert keys == GOLDEN_STORE_KEYS[entry]
