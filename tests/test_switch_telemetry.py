"""Tests for switch flow telemetry and the count-min sketch."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.switch.telemetry import CountMinSketch, FlowTelemetry


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=3)
        truth = {}
        rng = random.Random(1)
        for _ in range(2000):
            key = f"flow-{rng.randrange(200)}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(width=1024, depth=4)
        sketch.add("a", 5)
        sketch.add("b", 3)
        assert sketch.estimate("a") == 5
        assert sketch.estimate("b") == 3
        assert sketch.estimate("never") == 0

    def test_error_bounded_by_load(self):
        # Classic CMS bound: error <= e/width * total with high probability.
        sketch = CountMinSketch(width=512, depth=4)
        rng = random.Random(2)
        for _ in range(10_000):
            sketch.add(f"k{rng.randrange(2000)}")
        overestimate = sketch.estimate("absent-key")
        assert overestimate <= 3 * 10_000 / 512  # generous multiple of n/w

    def test_validation(self):
        with pytest.raises(ConfigError):
            CountMinSketch(width=4)
        with pytest.raises(ConfigError):
            CountMinSketch(depth=0)
        sketch = CountMinSketch()
        with pytest.raises(ConfigError):
            sketch.add("k", -1)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=200))
    def test_total_preserved(self, keys):
        sketch = CountMinSketch(width=64, depth=2)
        for key in keys:
            sketch.add(key)
        assert sketch.total == len(keys)


class TestFlowTelemetry:
    def test_small_flows_stay_in_sketch(self):
        telemetry = FlowTelemetry(promote_threshold=10)
        for i in range(5):
            telemetry.record("mouse", 4.0, 10.0)
        assert telemetry.tracked("mouse") is None
        assert telemetry.estimated_packets("mouse") >= 5

    def test_heavy_flow_promoted(self):
        telemetry = FlowTelemetry(promote_threshold=10)
        for _ in range(30):
            telemetry.record("elephant", 4.0, 20.0)
        stats = telemetry.tracked("elephant")
        assert stats is not None
        assert stats.packets > 0
        assert telemetry.promotions == 1

    def test_latency_ewma_tracks_shift(self):
        telemetry = FlowTelemetry(promote_threshold=1, ewma_alpha=0.5)
        for _ in range(10):
            telemetry.record("f", 4.0, 100.0)
        low = telemetry.tracked("f").latency_ewma_us
        for _ in range(10):
            telemetry.record("f", 4.0, 1000.0)
        high = telemetry.tracked("f").latency_ewma_us
        assert low == pytest.approx(100.0)
        assert high > 800.0

    def test_top_flows_ranked(self):
        telemetry = FlowTelemetry(promote_threshold=1)
        for _ in range(50):
            telemetry.record("big", 4.0, 1.0)
        for _ in range(10):
            telemetry.record("small", 4.0, 1.0)
        top = telemetry.top_flows(k=2)
        assert top[0][0] == "big"
        assert top[0][1] > top[1][1]

    def test_table_capacity_respected(self):
        telemetry = FlowTelemetry(promote_threshold=1, max_tracked_flows=3)
        for i in range(10):
            for _ in range(5):
                telemetry.record(f"flow-{i}", 4.0, 1.0)
        assert len(telemetry._tracked) <= 3

    def test_hot_flow_share(self):
        telemetry = FlowTelemetry(promote_threshold=100)
        for _ in range(10):
            telemetry.record("cold", 4.0, 1.0)
        assert telemetry.hot_flow_share() == 0.0
        telemetry2 = FlowTelemetry(promote_threshold=1)
        for _ in range(10):
            telemetry2.record("hot", 4.0, 1.0)
        assert telemetry2.hot_flow_share() > 0.8

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlowTelemetry(max_tracked_flows=0)
        with pytest.raises(ConfigError):
            FlowTelemetry(promote_threshold=0)
        with pytest.raises(ConfigError):
            FlowTelemetry(ewma_alpha=0.0)

    def test_sketch_counts_match_add(self):
        # ``record`` bumps the cells ``CountMinSketch.add`` would.
        telemetry = FlowTelemetry(sketch_width=64, sketch_depth=3)
        twin = CountMinSketch(width=64, depth=3)
        rng = random.Random(3)
        for _ in range(2000):
            key = f"flow-{rng.randrange(50)}"
            telemetry.record(key, 4.0, 1.0)
            twin.add(key)
        assert telemetry.sketch._rows == twin._rows
        assert telemetry.sketch.total == twin.total


class TestForgetClient:
    def test_closed_connections_leave_the_exact_table(self):
        # Served connections each ride their own flow; once 64 of them
        # have been promoted, only forgetting them lets a later one in.
        from repro.cluster.config import RackConfig
        from repro.cluster.rack import Rack

        rack = Rack(RackConfig(num_servers=2, num_pairs=2))
        telemetry = rack.telemetry
        for i in range(70):
            for _ in range(telemetry.promote_threshold):
                telemetry.record(f"conn-{i}", 4.0, 1.0)
            assert telemetry.tracked(f"conn-{i}") is not None
            rack.forget_client(f"conn-{i}")
        for _ in range(telemetry.promote_threshold):
            telemetry.record("conn-live", 4.0, 1.0)
        assert telemetry.tracked("conn-live") is not None
        assert not any(telemetry.tracked(f"conn-{i}") for i in range(70))
        assert telemetry.promotions == 71
