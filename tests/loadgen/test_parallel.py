"""Tests for the campaign parallel runner."""

from __future__ import annotations

import os

import pytest

from repro.errors import WorkloadError
from repro.loadgen.lancet import BenchConfig, run_benchmark
from repro.parallel import (
    ParallelRunner,
    _require_all_ok,
    resolve_workers,
    run_campaign,
)
from repro.supervise import CheckpointStore
from repro.units import msecs


def _double(x):
    return 2 * x


def _add(a, b):
    return a + b


def _configs(rates):
    return [
        BenchConfig(rate_per_sec=rate, warmup_ns=msecs(2), measure_ns=msecs(5))
        for rate in rates
    ]


class TestResolveWorkers:
    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_none_means_one_per_cpu(self):
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            resolve_workers(-1)


class TestRunMany:
    def test_matches_serial_in_order(self):
        configs = _configs([8_000.0, 15_000.0, 25_000.0])
        serial = [run_benchmark(config) for config in configs]
        pooled = run_campaign(configs, workers=2)
        assert pooled == serial

    def test_more_workers_than_jobs(self):
        configs = _configs([8_000.0, 15_000.0])
        serial = [run_benchmark(config) for config in configs]
        assert run_campaign(configs, workers=8) == serial

    def test_unpicklable_tweak_falls_back_to_serial(self):
        configs = _configs([8_000.0, 15_000.0])
        seen = []
        with pytest.warns(UserWarning, match="not picklable"):
            results = run_campaign(
                configs, tweak=lambda bed: seen.append(bed), workers=2
            )
        # The fallback runs in-process, so the closure still fires.
        assert len(seen) == 2
        assert len(results) == 2

    def test_serial_runner_keeps_tweak_side_effects(self):
        configs = _configs([8_000.0])
        seen = []
        run_campaign(configs, tweak=lambda bed: seen.append(bed))
        assert len(seen) == 1

    def test_run_campaign_convenience(self):
        configs = _configs([8_000.0, 15_000.0])
        assert run_campaign(configs, workers=2) == run_campaign(configs)

    def test_bad_config_is_refused_before_any_job(self, tmp_path):
        # Validated up front: no job runs, none is retried into
        # quarantine, and the store records nothing.
        store = CheckpointStore(tmp_path / "store")
        with pytest.raises(WorkloadError, match="rate must be positive"):
            run_campaign(_configs([8_000.0, -5.0]), checkpoint=store)
        store.close()
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)
        assert not list((tmp_path / "store").glob("shard-*.jsonl"))


def _map(workers, fn, items):
    return _require_all_ok(ParallelRunner(workers).map_outcomes(fn, items))


class TestMap:
    def test_single_argument_items(self):
        assert _map(2, _double, [1, 2, 3]) == [2, 4, 6]

    def test_tuple_items_unpack_as_positional_args(self):
        items = [(1, 10), (2, 20), (3, 30)]
        assert _map(2, _add, items) == [11, 22, 33]

    def test_serial_map(self):
        assert _map(1, _double, [4, 5]) == [8, 10]
