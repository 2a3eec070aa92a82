"""Tests for the parallel experiment engine (RunSpec / RunCache / runner)."""

import pickle

import pytest

from repro.cluster.config import SystemType
from repro.errors import ConfigError
from repro.experiments.figures import clear_cache, fig9_p999_latency
from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunSpec,
    default_jobs,
    get_runner,
    shared_cache,
    using_jobs,
)
from repro.workloads.spec import ycsb


def _spec(ratio: float = 0.5, seed: int = 42, **overrides) -> RunSpec:
    return RunSpec.create(
        SystemType.VDC, ycsb(ratio), 50, 1500.0, seed,
        num_servers=2, num_pairs=2, **overrides,
    )


class TestRunSpec:
    def test_create_normalises_overrides(self):
        a = RunSpec.create(SystemType.VDC, ycsb(0.5), 100, 1500.0, 1,
                           num_servers=2, num_pairs=2)
        b = RunSpec.create(SystemType.VDC, ycsb(0.5), 100, 1500.0, 1,
                           num_pairs=2, num_servers=2)
        assert a == b and hash(a) == hash(b)

    def test_distinct_specs_differ(self):
        assert _spec(0.2) != _spec(0.8)
        assert _spec(seed=1) != _spec(seed=2)

    def test_workload_identity_is_full_spec(self):
        # Two workloads differing only in zipf skew must not collide.
        hot = RunSpec.create(SystemType.VDC, ycsb(0.5, theta=0.99), 50,
                             1500.0, 1)
        flat = RunSpec.create(SystemType.VDC, ycsb(0.5, theta=0.2), 50,
                              1500.0, 1)
        assert hot != flat

    def test_is_picklable(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_build_config_applies_overrides(self):
        config = _spec().build_config()
        assert config.num_servers == 2 and config.seed == 42

    def test_execute_runs_rack(self):
        result = _spec().execute()
        assert result.metrics.read_total.count > 0
        assert result.wall_clock_s > 0
        assert result.events > 0
        assert result.events_per_sec() > 0


class TestRunCache:
    def test_lru_eviction_bounds_entries(self):
        cache = RunCache(max_entries=3)
        for i in range(10):
            cache.put(i, str(i))
        assert len(cache) == 3
        assert cache.evictions == 7
        assert 9 in cache and 0 not in cache

    def test_get_refreshes_recency(self):
        cache = RunCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "a" in cache and "b" not in cache

    def test_hit_miss_accounting(self):
        cache = RunCache()
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.hits == 1 and cache.misses == 1

    def test_compares_to_plain_dict(self):
        cache = RunCache()
        assert cache == {}
        cache.put("k", "v")
        assert cache == {"k": "v"}

    def test_invalid_bound_rejected(self):
        with pytest.raises(ConfigError):
            RunCache(max_entries=0)

    def test_shared_cache_is_bounded(self):
        assert shared_cache.max_entries >= 1


class TestParallelRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ParallelRunner(jobs=0)

    def test_duplicate_specs_execute_once(self):
        runner = ParallelRunner(jobs=1, cache=RunCache())
        spec = _spec()
        results = runner.run_specs([spec, spec, spec])
        assert len(results) == 3
        # All three rows come from the same cached object.
        assert results[0] is results[1] is results[2]

    def test_results_align_with_request_order(self):
        runner = ParallelRunner(jobs=1, cache=RunCache())
        specs = [_spec(0.0), _spec(1.0), _spec(0.0)]
        results = runner.run_specs(specs)
        assert results[0] is results[2]
        assert results[0] is not results[1]
        # 0% writes -> no write completions; 100% -> no reads.
        assert results[0].metrics.write_total.count == 0
        assert results[1].metrics.read_total.count == 0

    def test_cache_hit_skips_execution(self):
        cache = RunCache()
        runner = ParallelRunner(jobs=1, cache=cache)
        spec = _spec()
        first = runner.run_specs([spec])[0]
        again = runner.run_specs([spec])[0]
        assert first is again

    def test_process_pool_results_match_serial(self):
        spec_a, spec_b = _spec(0.2), _spec(0.8)
        serial = ParallelRunner(jobs=1, cache=RunCache()).run_specs(
            [spec_a, spec_b]
        )
        fanned = ParallelRunner(jobs=2, cache=RunCache()).run_specs(
            [spec_a, spec_b]
        )
        for left, right in zip(serial, fanned):
            assert left.metrics.summary() == right.metrics.summary()
            assert left.sim_duration_us == right.sim_duration_us

    def test_map_applies_function(self):
        runner = ParallelRunner(jobs=2)
        assert runner.map(abs, [-1, 2, -3]) == [1, 2, 3]

    def test_map_unpicklable_falls_back_to_serial(self):
        runner = ParallelRunner(jobs=2)
        doubled = runner.map(lambda x: x * 2, [1, 2, 3])
        assert doubled == [2, 4, 6]

    def test_map_empty(self):
        assert ParallelRunner(jobs=4).map(abs, []) == []

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestRunnerConfiguration:
    def test_using_jobs_preserves_shared_cache(self):
        with using_jobs(3) as runner:
            assert runner.jobs == 3
            assert runner.cache is shared_cache
            assert get_runner() is runner

    def test_using_jobs_restores_previous_runner(self):
        before = get_runner()
        with using_jobs(2) as runner:
            assert get_runner() is runner and runner.jobs == 2
        assert get_runner() is before

    def test_zero_resolves_to_all_cores(self):
        with using_jobs(0) as runner:
            assert runner.jobs == default_jobs()


class TestFigureDeterminism:
    def test_figure_rows_bit_identical_serial_vs_parallel(self):
        kwargs = dict(write_ratios=(0.0, 0.6), requests=120, seed=42)
        clear_cache()
        with using_jobs(1):
            serial = fig9_p999_latency(**kwargs)
        clear_cache()
        with using_jobs(4):
            fanned = fig9_p999_latency(**kwargs)
        clear_cache()
        assert serial.columns == fanned.columns
        assert serial.rows == fanned.rows  # bit-identical float values
