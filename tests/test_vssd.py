"""Tests for vSSD virtualization: allocation, I/O, GC, isolation."""

import pytest

from repro.errors import ConfigError, VSSDError
from repro.flash import FlashGeometry, PSSD, Ssd
from repro.sim import Event, Simulator
from repro.vssd import ChannelGroup, IsolationType, TokenBucket, VssdAllocator


def make_ssd(sim=None, channels=4, chips_per_channel=2, blocks=32, pages=8):
    sim = sim if sim is not None else Simulator()
    geo = FlashGeometry(
        channels=channels,
        chips_per_channel=chips_per_channel,
        blocks_per_chip=blocks,
        pages_per_block=pages,
    )
    return sim, Ssd(sim, "ssd-0", geometry=geo)


def run_op(sim, start, *args, **kwargs):
    """Run one operation core to completion, alone on the simulator."""
    done = Event(sim)
    start(*args, done.succeed, **kwargs)
    sim.run()
    assert done.triggered


class TestAllocator:
    def test_hardware_isolated_owns_channels(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        vssd = alloc.create_hardware_isolated("v1", channels=[0, 1])
        assert vssd.isolation is IsolationType.HARDWARE
        assert len(vssd.ftl.chips) == 4  # 2 channels * 2 chips
        # The other two channels stay free.
        alloc.create_hardware_isolated("v2", channels=[2, 3])

    def test_channel_double_allocation_rejected(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        alloc.create_hardware_isolated("v1", channels=[0])
        with pytest.raises(VSSDError):
            alloc.create_hardware_isolated("v2", channels=[0])

    def test_software_isolated_owns_chips(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        vssd = alloc.create_software_isolated("v1", chips=[0, 2])
        assert vssd.isolation is IsolationType.SOFTWARE
        assert [c.chip_id for c in vssd.ftl.chips] == [0, 2]

    def test_chip_on_owned_channel_rejected(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        alloc.create_hardware_isolated("hw", channels=[0])
        with pytest.raises(VSSDError):
            alloc.create_software_isolated("sw", chips=[0])  # chip 0 on channel 0

    def test_chip_double_allocation_rejected(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        alloc.create_software_isolated("a", chips=[1])
        with pytest.raises(VSSDError):
            alloc.create_software_isolated("b", chips=[1])

    def test_vssd_ids_are_unique(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        a = alloc.create_hardware_isolated("a", channels=[0])
        b = alloc.create_hardware_isolated("b", channels=[1])
        assert a.vssd_id != b.vssd_id

    def test_empty_allocation_rejected(self):
        _, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        with pytest.raises(VSSDError):
            alloc.create_hardware_isolated("v", channels=[])
        with pytest.raises(VSSDError):
            alloc.create_software_isolated("v", chips=[])


class TestVssdIo:
    def test_read_takes_device_time(self):
        sim, ssd = make_ssd()
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        run_op(sim, vssd.start_write, 0)
        run_op(sim, vssd.start_read, 0)
        expected = PSSD.program_latency(4.0) + PSSD.read_latency(4.0)
        assert sim.now == pytest.approx(expected)
        assert vssd.reads_served == 1 and vssd.writes_served == 1

    def test_read_unwritten_page_still_costs_a_read(self):
        sim, ssd = make_ssd()
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        run_op(sim, vssd.start_read, 5)
        assert sim.now == pytest.approx(PSSD.read_latency(4.0))

    def test_hardware_isolation_no_cross_interference(self):
        # Two HW-isolated vSSDs on different channels run concurrently.
        sim, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        v1 = alloc.create_hardware_isolated("v1", channels=[0])
        v2 = alloc.create_hardware_isolated("v2", channels=[1])
        done = {}
        v1.start_write(0, lambda: done.setdefault("v1", sim.now))
        v2.start_write(0, lambda: done.setdefault("v2", sim.now))
        sim.run()
        t1 = done["v1"]
        t2 = done["v2"]
        assert t1 == pytest.approx(t2)  # fully parallel

    def test_software_isolated_share_channel_serialises(self):
        # Two SW-isolated vSSDs on chips of the same channel contend.
        sim, ssd = make_ssd(channels=1, chips_per_channel=2)
        alloc = VssdAllocator(ssd)
        v1 = alloc.create_software_isolated("v1", chips=[0])
        v2 = alloc.create_software_isolated("v2", chips=[1])
        done = []
        v1.start_write(0, lambda: done.append(sim.now))
        v2.start_write(0, lambda: done.append(sim.now))
        sim.run()
        times = sorted(done)
        assert times[1] == pytest.approx(2 * PSSD.program_latency(4.0))

    def test_pages_written_accrues_on_ssd(self):
        sim, ssd = make_ssd()
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        for lpn in range(5):
            run_op(sim, vssd.start_write, lpn)
        assert ssd.pages_written == 5


class TestVssdGc:
    def _fill(self, sim, vssd, rewrites=3):
        """Fill the vSSD with rewrites, one at a time, to create stale pages."""
        for _ in range(rewrites):
            for lpn in range(vssd.logical_pages):
                if vssd.free_block_ratio() < 0.15:
                    run_op(sim, vssd.gc_until, 0.3)
                run_op(sim, vssd.start_write, lpn)

    def test_gc_restores_free_space(self):
        sim, ssd = make_ssd(channels=1, blocks=16, pages=8)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        self._fill(sim, vssd)
        assert vssd.free_block_ratio() > 0.1
        assert vssd.gc_runs > 0
        vssd.ftl.check_invariants()

    def test_gc_delays_concurrent_read(self):
        # A read issued while GC is running waits for the in-flight GC
        # command (GC is sliced per command, so the stall is bounded by
        # one operation, not the whole victim).
        sim, ssd = make_ssd(channels=1, chips_per_channel=1, blocks=16, pages=8)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        # Fill synchronously to create invalid pages.
        self._fill(sim, vssd, rewrites=2)
        read_latency = []
        gc_done = Event(sim)
        vssd.gc_until(0.9, gc_done.succeed, max_victims=4)
        t0 = sim.now
        vssd.start_read(0, lambda: read_latency.append(sim.now - t0))
        sim.run()
        assert gc_done.triggered
        bare_read = PSSD.read_latency(4.0)
        assert read_latency[0] > bare_read * 1.5
        # But far less than a whole victim's worth of migrations + erase.
        assert read_latency[0] < 4 * PSSD.erase_us

    def test_gc_active_flag_toggles(self):
        sim, ssd = make_ssd(channels=1, blocks=16, pages=8)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        self._fill(sim, vssd, rewrites=2)
        done = Event(sim)
        vssd.gc_until(0.95, done.succeed, max_victims=2)
        observed = [vssd.gc_active]
        sim.run()
        observed.append(vssd.gc_active)
        assert done.triggered
        assert observed == [True, False]

    def test_gc_needed_kinds(self):
        sim, ssd = make_ssd(channels=1, blocks=20, pages=4)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0])
        assert vssd.gc_needed() is None
        lpn = 0
        while vssd.free_block_ratio() >= 0.30:
            run_op(sim, vssd.start_write, lpn % vssd.logical_pages)
            lpn += 1
        assert vssd.gc_needed() in ("soft", "regular")


class TestTokenBucket:
    def test_burst_within_capacity_is_free(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1000.0, capacity=10.0)
        assert bucket.delay_for(5) == 0.0
        assert bucket.delay_for(5) == 0.0

    def test_exhausted_bucket_delays(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1000.0, capacity=10.0)
        bucket.delay_for(10)
        wait = bucket.delay_for(1)
        # 1 token at 1000/s = 1 ms = 1000 us.
        assert wait == pytest.approx(1000.0)

    def test_refill_over_time(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1000.0, capacity=10.0)
        bucket.delay_for(10)
        sim.schedule_after(5000.0, lambda: None)  # 5 ms -> 5 tokens
        sim.run()
        assert bucket.tokens == pytest.approx(5.0)

    def test_waiting_out_the_delay_paces_a_caller(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1_000_000.0, capacity=1.0)
        times = []

        def take():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule_after(bucket.delay_for(1), take)

        sim.schedule_after(bucket.delay_for(1), take)
        sim.run()
        # First op free; each next op waits 1 us at 1M tokens/s.
        assert times == pytest.approx([0.0, 1.0, 2.0])

    def test_concurrent_requests_queue_behind_each_other(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1_000_000.0, capacity=1.0)
        waits = [bucket.delay_for(1) for _ in range(3)]
        assert waits == pytest.approx([0.0, 1.0, 2.0])

    def test_queued_waiters_serialise(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_per_sec=1000.0, capacity=1.0)
        waits = [bucket.delay_for(1) for _ in range(3)]
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(1000.0)
        assert waits[2] == pytest.approx(2000.0)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            TokenBucket(sim, rate_per_sec=0, capacity=1)
        with pytest.raises(ConfigError):
            TokenBucket(sim, rate_per_sec=1, capacity=0)
        bucket = TokenBucket(sim, rate_per_sec=1, capacity=1)
        with pytest.raises(ConfigError):
            bucket.delay_for(0)


class TestChannelGroup:
    def _group(self, sim=None):
        sim, ssd = make_ssd(sim, channels=1, chips_per_channel=4, blocks=16, pages=4)
        alloc = VssdAllocator(ssd)
        # Two SW-isolated vSSDs, each owning 2 chips on the same channel.
        a = alloc.create_software_isolated("a", chips=[0, 1])
        b = alloc.create_software_isolated("b", chips=[2, 3])
        group = ChannelGroup("grp", [a, b], borrow_blocks=4)
        return sim, a, b, group

    def test_members_get_backref(self):
        _, a, b, group = self._group()
        assert a.channel_group is group and b.channel_group is group

    def test_rejects_hardware_isolated_members(self):
        sim, ssd = make_ssd()
        alloc = VssdAllocator(ssd)
        hw = alloc.create_hardware_isolated("hw", channels=[0])
        with pytest.raises(VSSDError):
            ChannelGroup("g", [hw])

    def test_rejects_mismatched_channels(self):
        sim, ssd = make_ssd(channels=2, chips_per_channel=2)
        alloc = VssdAllocator(ssd)
        a = alloc.create_software_isolated("a", chips=[0])   # channel 0
        b = alloc.create_software_isolated("b", chips=[2])   # channel 1
        with pytest.raises(VSSDError):
            ChannelGroup("g", [a, b])

    def test_group_free_ratio_aggregates(self):
        sim, a, b, group = self._group()
        assert group.free_block_ratio() == 1.0
        for lpn in range(a.logical_pages):
            run_op(sim, a.start_write, lpn)
        # Only member a consumed blocks; the aggregate sits between the two.
        assert b.free_block_ratio() == 1.0
        assert a.free_block_ratio() < 1.0
        assert a.free_block_ratio() < group.free_block_ratio() < 1.0

    def test_rebalance_lends_to_needy_member(self):
        sim, a, b, group = self._group()
        # Rewrite the same pages until member a runs out of free blocks
        # while b stays full of them.
        lpn = 0
        while a.ftl.free_blocks_total() > 1:
            run_op(sim, a.start_write, lpn % a.logical_pages)
            lpn += 1
        spare = b.ftl.free_blocks_total()
        assert group.rebalance_free_blocks() == group.borrow_blocks
        assert b.ftl.free_blocks_total() == spare - group.borrow_blocks
        assert a.ftl.borrowed_block_count == group.blocks_borrowed == 4

    def test_group_gc_runs_all_members_together(self):
        sim, a, b, group = self._group()
        # One full pass plus a partial rewrite: creates stale pages while
        # staying within physical capacity (no GC needed yet).
        for vssd in (a, b):
            for lpn in range(vssd.logical_pages):
                run_op(sim, vssd.start_write, lpn)
            for lpn in range(vssd.logical_pages // 4):
                run_op(sim, vssd.start_write, lpn)
        run_op(sim, group.group_gc, 0.9)
        assert group.group_gcs == 1
        assert a.gc_runs == 1 and b.gc_runs == 1

    def test_needs_group_gc_uses_aggregate(self):
        sim, a, b, group = self._group()
        assert group.needs_group_gc() is None
