"""Log-bucketed histograms: accuracy, exact merges, and a served
collector whose memory does not grow with the requests it serves."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import RackConfig, SystemType
from repro.errors import ConfigError
from repro.metrics import ExperimentMetrics, LogHistogram, percentile
from repro.metrics.collector import RECORDERS
from repro.metrics.histogram import MAX_BUCKETS, bucket_of
from repro.service.bridge import SimTimeBridge
from repro.service.router import ShardedRackService, ShardRouter

latencies = st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1,
                     max_size=300)


def histogram_of(values, name=""):
    out = LogHistogram(name)
    for at, value in enumerate(values):
        out.record(value, at=float(at))
    return out


class TestLogHistogram:
    @settings(max_examples=60, deadline=None)
    @given(latencies)
    def test_tails_within_one_percent_and_count_mean_exact(self, values):
        h = histogram_of(values)
        for q in (50.0, 99.0, 99.9):
            assert h.p(q) == pytest.approx(percentile(values, q), rel=0.01)
        assert h.count == len(values)
        assert h.sum == sum(values)
        assert h.mean() == sum(values) / len(values)
        assert (h.min, h.max) == (min(values), max(values))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                    max_size=100))
    def test_below_one_us_the_error_is_under_one_us(self, values):
        h = histogram_of(values)
        for q in (0.0, 50.0, 99.0, 100.0):
            exact = percentile(values, q)
            assert abs(h.p(q) - exact) <= 0.01 * exact + 1.0

    @settings(max_examples=40, deadline=None)
    @given(latencies, latencies)
    def test_merge_equals_the_histogram_of_both(self, a, b):
        merged = histogram_of(a).merge(histogram_of(b))
        both = LogHistogram()
        for at, value in enumerate(a):
            both.record(value, at=float(at))
        for at, value in enumerate(b):
            both.record(value, at=float(at))
        got, want = merged.to_wire(), both.to_wire()
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
        assert got == want
        assert merged.p99() == both.p99() and merged.p999() == both.p999()

    @settings(max_examples=30, deadline=None)
    @given(latencies)
    def test_the_wire_form_round_trips_through_json(self, values):
        h = histogram_of(values)
        back = LogHistogram.from_wire(json.loads(json.dumps(h.to_wire())))
        assert back.to_wire() == h.to_wire()
        assert back.p999() == h.p999() and len(back._counts) == len(h._counts)

    def test_buckets_grow_by_the_ratio(self):
        assert bucket_of(0.0) == bucket_of(0.99) == 0
        assert bucket_of(1.0) == 1
        assert bucket_of(1.0199) == 1 and bucket_of(1.0201) == 2
        assert bucket_of(1e300) == MAX_BUCKETS - 1

    def test_empty_histogram(self):
        h = LogHistogram("x")
        assert h.to_wire() == {"count": 0}
        assert LogHistogram.from_wire({"count": 0}).count == 0
        assert h.throughput_kiops() == 0.0
        with pytest.raises(ConfigError):
            h.p99()
        with pytest.raises(ConfigError):
            h.mean()
        with pytest.raises(ConfigError):
            h.record(-1.0)

    def test_a_malformed_wire_form_is_refused(self):
        wire = histogram_of([5.0, 50.0]).to_wire()
        with pytest.raises(ConfigError):
            LogHistogram.from_wire(dict(wire, count=3))
        with pytest.raises(ConfigError):
            LogHistogram.from_wire(dict(wire, lo=MAX_BUCKETS))
        for broken in ([1, 2], dict(wire, counts=None),
                       {k: v for k, v in wire.items() if k != "sum"}):
            with pytest.raises(ConfigError):
                LogHistogram.from_wire(broken)

    def test_experiment_metrics_summarises_either_recorder(self):
        exact, binned = ExperimentMetrics(), ExperimentMetrics(LogHistogram)
        for i in range(1, 400):
            for metrics in (exact, binned):
                metrics.record("read", 10.0 + i, at=float(i), storage_us=5.0)
                metrics.record("write", 40.0 + i % 7, at=float(i))
        want, got = exact.summary(), binned.summary()
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=0.01), key
        assert got["read_count"] == want["read_count"]


def _drive(router_or_bridge, count):
    async def go():
        for start in range(0, count, 8):
            futures = []
            for i in range(start, min(count, start + 8)):
                if i % 3:
                    futures.append(router_or_bridge.submit_read(i % 2, i))
                else:
                    futures.append(router_or_bridge.submit_put(f"k{i}", "v"))
            await asyncio.gather(*futures)
    return go()


def _assert_bounded(metrics):
    for name in RECORDERS:
        recorder = getattr(metrics, name)
        assert isinstance(recorder, LogHistogram)
        assert len(recorder._counts) <= MAX_BUCKETS


class TestServedCollectorsAreBounded:
    N = 40

    def _config(self):
        return RackConfig(system=SystemType.RACKBLOX, num_servers=2,
                          num_pairs=2, seed=5)

    def test_bridge(self):
        async def scenario():
            bridge = SimTimeBridge(self._config(), precondition=False)
            await bridge.start()
            try:
                for count in (self.N, 4 * self.N):
                    await _drive(bridge, count)
                    _assert_bounded(bridge.metrics)
                return bridge.metrics
            finally:
                await bridge.stop()

        metrics = asyncio.run(scenario())
        assert metrics.read_total.count + metrics.write_total.count \
            == 5 * self.N

    def test_two_rack_router(self):
        async def scenario():
            router = ShardRouter.from_config(
                self._config(), 2, gc_sync_s=0.0, precondition=False)
            await router.start()
            try:
                for count in (self.N, 4 * self.N):
                    await _drive(router, count)
                    for shard in router.shards:
                        _assert_bounded(shard.bridge.metrics)
                payload = ShardedRackService(router)._stats_payload()
            finally:
                await router.stop()
            return router, payload

        router, payload = asyncio.run(scenario())
        # The fleet's histograms are its shards' merged, and each request
        # ran on one rack: one sample each.
        merged = ExperimentMetrics(LogHistogram)
        for shard in router.shards:
            merged.merge_histograms(shard.bridge.metrics.histograms())
        assert merged.read_total.count + merged.write_total.count \
            == 5 * self.N
        assert payload["histograms"] == merged.histograms()
