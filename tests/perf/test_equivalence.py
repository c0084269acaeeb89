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
#: them byte for byte.
GOLDEN_EXPERIMENTS = {
    "fanin_4c": "63111f14594cfef073cec57670a98087dd4f3593c89cce8898c2f064ee6377b4",
    "timevarying_walk": "9e85822afa05a262befcbde6bbca0f81e1f737b54d8307a30aacde38738397ca",
    "bottleneck_4f": "94dc1230dd16d9f2fccd62f8c94d9a260cc5ecf75156c92aa74b08e254abae6e",
}

#: The decomposed (sharded) fan-in model — a different scenario from the
#: monolithic fanin_4c (per-connection server replicas), pinned once and
#: required identical for every shard count.
GOLDEN_FANIN_SHARDED = (
    "4a015db3cf0c7595a7461a32d25c822653cd3791dc6ea3e08101489675f3ad5c"
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plain_run_matches_pre_pr_golden(name):
    config = equivalence_configs()[name]
    assert digest(run_plain(config)) == GOLDEN[name]["result"]


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_shape_matches_golden(name):
    """Fan-in, time-varying and bottleneck traffic reproduce their
    pinned digests."""
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
    """fanin + timevarying + bottleneck are digest-covered."""
    assert set(experiment_shapes()) == set(GOLDEN_EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instrumented_run_matches_pre_pr_golden(name):
    """Tracing on must neither perturb the result nor its own stream."""
    config = equivalence_configs()[name]
    result, records = run_instrumented(config)
    assert digest(result) == GOLDEN[name]["result_instrumented"]
    assert digest(records) == GOLDEN[name]["trace"]


def test_instrumentation_is_invisible_to_results():
    """The committed goldens themselves: tracing never changes a result."""
    for name, golden in GOLDEN.items():
        assert golden["result"] == golden["result_instrumented"], name


# ---------------------------------------------------------------------------
# Result cache: hits replay byte-identically, misses/stores are counted.
# ---------------------------------------------------------------------------


def test_cache_hit_replay_is_byte_identical(tmp_path):
    """A cache hit is the *same bytes* as running the config fresh."""
    from repro.cache import ResultCache
    from repro.parallel import run_campaign

    config = equivalence_configs()["fig2_vm_nagle"]

    cache = ResultCache(tmp_path / "cache")
    (first,) = run_campaign([config], checkpoint=cache)
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    cache.close()

    # A fresh cache object over the same directory: a different
    # "experiment" replaying the same config from disk.
    replay_cache = ResultCache(tmp_path / "cache")
    (replayed,) = run_campaign([config], checkpoint=replay_cache)
    assert (replay_cache.hits, replay_cache.misses) == (1, 0)
    replay_cache.close()

    fresh_digest = digest(run_plain(config))
    assert digest(first) == fresh_digest
    assert digest(replayed) == fresh_digest
    assert fresh_digest == GOLDEN["fig2_vm_nagle"]["result"]


def test_within_campaign_dedupe_runs_each_key_once(tmp_path):
    """Duplicate configs in one campaign run once and share the result."""
    from repro.cache import ResultCache
    from repro.parallel import ParallelRunner

    config = equivalence_configs()["fig2_vm_nagle"]
    cache = ResultCache(tmp_path / "cache")
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
    from repro.cache import ResultCache
    from repro.parallel import run_campaign

    configs = equivalence_configs()
    shared = configs["fig2_vm_nagle"]
    other = configs["fig4a_35k"]

    cache = ResultCache(tmp_path / "cache")
    run_campaign([shared], checkpoint=cache)
    cache.close()

    # "Experiment two" overlaps experiment one in `shared` only.
    cache_two = ResultCache(tmp_path / "cache")
    shared_again, other_result = run_campaign(
        [shared, other], checkpoint=cache_two
    )
    assert (cache_two.hits, cache_two.misses, cache_two.stores) == (1, 1, 1)
    assert digest(shared_again) == GOLDEN["fig2_vm_nagle"]["result"]
    assert digest(other_result) == GOLDEN["fig4a_35k"]["result"]
    cache_two.close()
