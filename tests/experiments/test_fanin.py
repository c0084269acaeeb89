"""Smoke tests for the fan-in experiment (A10)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.fanin import (
    FaninConfig,
    build_fanin,
    run_fanin,
    run_fanin_sharded,
)
from repro.supervise import SupervisePolicy
from repro.units import msecs

import pytest as _pytest

pytestmark = _pytest.mark.slow


def small_config(**overrides) -> FaninConfig:
    defaults = dict(
        clients=3,
        total_rate_per_sec=15_000.0,
        warmup_ns=msecs(10),
        measure_ns=msecs(60),
    )
    defaults.update(overrides)
    return FaninConfig(**defaults)


class TestBuildFanin:
    def test_topology_wiring(self, ):
        bed = build_fanin(small_config())
        assert len(bed.client_hosts) == 3
        assert len(bed.server.sockets) == 3
        # Every connection reaches the same server host.
        for sock in bed.server_socks:
            assert sock.host is bed.server_host

    def test_chosen_clients_keep_their_global_names(self):
        bed = build_fanin(small_config(), (2,))
        assert bed.indices == (2,)
        assert [host.name for host in bed.client_hosts] == ["client2"]
        assert [client.name for client in bed.clients] == ["lancet2"]
        assert bed.server.sockets == bed.server_socks


class TestRunFanin:
    def test_all_clients_served(self):
        result = run_fanin(small_config())
        assert len(result.per_client_mean_ns) == 3
        assert all(mean > 0 for mean in result.per_client_mean_ns)

    def test_estimates_track_aggregate_below_saturation(self):
        result = run_fanin(small_config())
        assert result.averaged_estimate_ns is not None
        assert result.averaged_estimate_ns == pytest.approx(
            result.aggregate_mean_ns, rel=0.5
        )

    def test_nagle_comparison_holds_under_fanin(self):
        high = small_config(total_rate_per_sec=48_000.0)
        off = run_fanin(high)
        on = run_fanin(FaninConfig(
            clients=3, total_rate_per_sec=48_000.0, nagle=True,
            warmup_ns=msecs(10), measure_ns=msecs(60),
        ))
        assert on.aggregate_mean_ns < off.aggregate_mean_ns

    def test_render(self):
        text = run_fanin(small_config()).render()
        assert "A10" in text
        assert "aggregate" in text


_FAST = SupervisePolicy(backoff_base_s=0.0, backoff_max_s=0.0)


@pytest.mark.parametrize("one_reply_kept", [False, True])
def test_resume_from_a_cut_store_matches_serial(tmp_path, one_reply_kept):
    # Two shard jobs, each stored whole.  Cut the store to its header
    # (stopped before either shard replied) or to one shard's reply: the
    # resumed run reruns only the shards the store lacks.
    from repro.cache import ResultCache

    config = small_config(measure_ns=msecs(20))
    store = tmp_path / "store"
    run_fanin_sharded(config, shards=2, checkpoint=store)
    (path,) = store.glob("shard-*.jsonl")
    header, *replies = path.read_text().splitlines()
    assert len(replies) == 2
    kept = replies[: int(one_reply_kept)]
    path.write_text("\n".join([header, *kept]) + "\n")
    cache = ResultCache(store)
    resumed = run_fanin_sharded(
        config, shards=2, workers=2, policy=_FAST, checkpoint=cache
    )
    assert resumed.to_json() == run_fanin_sharded(config).to_json()
    rerun = len(replies) - len(kept)
    assert (cache.hits, cache.misses, cache.stores) == (
        len(kept), rerun, rerun,
    )
    cache.close()
    labels = [
        record["label"]
        for path in sorted(store.glob("shard-*.jsonl"))
        for record in map(json.loads, path.read_text().splitlines())
        if record.get("kind") == "result"
    ]
    assert labels[: len(kept)] == [json.loads(r)["label"] for r in kept]
    assert sorted(labels) == ["fanin shard 1/2", "fanin shard 2/2"]
