"""Tests for workload specs and generators."""

import random

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    AUCTIONMARK,
    OpenLoopGenerator,
    TABLE2_WORKLOADS,
    TPCC,
    TPCH,
    TWITTER,
    WorkloadSpec,
    ycsb,
)
from repro.workloads.spec import Pattern


class TestSpecs:
    def test_table2_write_ratios(self):
        # The paper's measured write percentages (Table 2).
        assert TPCH.write_ratio == pytest.approx(0.0227)
        assert TABLE2_WORKLOADS["seats"].write_ratio == pytest.approx(0.1034)
        assert AUCTIONMARK.write_ratio == pytest.approx(0.5376)
        assert TPCC.write_ratio == pytest.approx(0.5995)
        assert TWITTER.write_ratio == pytest.approx(0.9786)

    def test_auctionmark_is_phased(self):
        # §4.3: AuctionMark's long write runs explain its lower GC impact.
        assert AUCTIONMARK.pattern is Pattern.PHASED
        assert TPCC.pattern is Pattern.MIXED

    def test_ycsb_factory(self):
        spec = ycsb(0.5)
        assert spec.write_ratio == 0.5
        assert spec.name == "ycsb-w50"

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(name="x", write_ratio=1.5)


class TestOpenLoop:
    def test_write_ratio_respected(self):
        gen = OpenLoopGenerator(ycsb(0.3), key_space=1000, rate_iops=10_000,
                                rng=random.Random(1))
        reqs = list(gen.requests(4000))
        writes = sum(1 for r in reqs if r.kind == "write")
        assert writes / len(reqs) == pytest.approx(0.3, abs=0.03)

    def test_read_only_and_write_only(self):
        ro = OpenLoopGenerator(ycsb(0.0), 100, 1000, rng=random.Random(2))
        assert all(r.kind == "read" for r in ro.requests(200))
        wo = OpenLoopGenerator(ycsb(1.0), 100, 1000, rng=random.Random(2))
        assert all(r.kind == "write" for r in wo.requests(200))

    def test_poisson_gaps_average_to_rate(self):
        gen = OpenLoopGenerator(ycsb(0.5), 100, rate_iops=10_000,
                                rng=random.Random(3))
        gaps = [r.gap_us for r in gen.requests(5000)]
        assert sum(gaps) / len(gaps) == pytest.approx(100.0, rel=0.1)

    def test_keys_in_range(self):
        gen = OpenLoopGenerator(ycsb(0.5), key_space=64, rate_iops=1000,
                                rng=random.Random(4))
        assert all(0 <= r.lpn < 64 for r in gen.requests(500))

    def test_zipfian_concentration(self):
        gen = OpenLoopGenerator(ycsb(0.5, theta=0.99), key_space=10_000,
                                rate_iops=1000, rng=random.Random(5))
        lpns = [r.lpn for r in gen.requests(3000)]
        hot = sum(1 for lpn in lpns if lpn < 1000)
        assert hot / len(lpns) > 0.5

    def test_phased_pattern_bursts(self):
        gen = OpenLoopGenerator(AUCTIONMARK, key_space=1000, rate_iops=1000,
                                rng=random.Random(6))
        kinds = [r.kind for r in gen.requests(1000)]
        # Count transitions: phased traffic has far fewer read<->write
        # switches than an iid mix at the same ratio.
        transitions = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert transitions < 100  # iid 50/50 would give ~500

    def test_phased_long_run_ratio(self):
        gen = OpenLoopGenerator(AUCTIONMARK, key_space=1000, rate_iops=1000,
                                rng=random.Random(7))
        kinds = [r.kind for r in gen.requests(6000)]
        writes = kinds.count("write")
        assert writes / len(kinds) == pytest.approx(AUCTIONMARK.write_ratio, abs=0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            OpenLoopGenerator(ycsb(0.5), key_space=0, rate_iops=100)
        with pytest.raises(ConfigError):
            OpenLoopGenerator(ycsb(0.5), key_space=10, rate_iops=0)
        gen = OpenLoopGenerator(ycsb(0.5), 10, 100)
        with pytest.raises(ConfigError):
            list(gen.requests(-1))
