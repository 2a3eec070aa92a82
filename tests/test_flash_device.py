"""Tests for channels, chips, SSD assembly, and wear statistics."""

from functools import partial

import pytest

from repro.errors import ConfigError, FlashError, OutOfSpaceError
from repro.flash import Channel, FlashChip, FlashGeometry, PSSD, Ssd, WearTracker
from repro.flash.wear import wear_imbalance, wear_variance
from repro.sim import Event, Simulator


class TestChip:
    def test_allocate_and_release_roundtrip(self):
        chip = FlashChip(0, 4, 4)
        block = chip.allocate_block()
        assert chip.free_block_count == 3
        chip.release_block(block)
        assert chip.free_block_count == 4

    def test_allocate_exhausts(self):
        chip = FlashChip(0, 2, 4)
        chip.allocate_block()
        chip.allocate_block()
        with pytest.raises(OutOfSpaceError):
            chip.allocate_block()

    def test_release_unerased_block_fails(self):
        chip = FlashChip(0, 2, 4)
        block = chip.allocate_block()
        block.program_next()
        with pytest.raises(FlashError):
            chip.release_block(block)

    def test_double_release_fails(self):
        chip = FlashChip(0, 2, 4)
        block = chip.allocate_block()
        chip.release_block(block)
        with pytest.raises(FlashError):
            chip.release_block(block)

    def test_best_victim_prefers_most_invalid(self):
        chip = FlashChip(0, 3, 4)
        b0 = chip.allocate_block()
        b1 = chip.allocate_block()
        for _ in range(4):
            b0.program_next()
            b1.program_next()
        chip.invalidate(b0.block_id, 0)
        chip.invalidate(b1.block_id, 0)
        chip.invalidate(b1.block_id, 1)
        assert chip.most_stale(None, frozenset()) is b1
        # The active write block and exempt (lent) blocks are skipped.
        assert chip.most_stale(b1, frozenset()) is b0
        assert chip.most_stale(None, {b1}) is b0

    def test_no_victim_when_clean(self):
        chip = FlashChip(0, 3, 4)
        assert chip.most_stale(None, frozenset()) is None


class TestChannel:
    def test_operations_take_time(self):
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        done = Event(sim)
        channel.submit("read", PSSD.read_latency(4.0), done.succeed)
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(PSSD.read_latency(4.0))

    def test_channel_serialises_commands(self):
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        finish_times = []
        for _ in range(2):
            channel.submit("read", PSSD.read_latency(4.0),
                           lambda: finish_times.append(sim.now))
        sim.run()
        one_read = PSSD.read_latency(4.0)
        assert finish_times == pytest.approx([one_read, 2 * one_read])

    def test_erase_blocks_queued_reads(self):
        # The head-of-line blocking at the heart of the paper: a read
        # arriving during an erase waits the full erase time.
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        read_done = []
        channel.start_erase(lambda: None)
        channel.submit("read", PSSD.read_latency(4.0),
                       lambda: read_done.append(sim.now))
        sim.run()
        assert read_done[0] == pytest.approx(PSSD.erase_us + PSSD.read_latency(4.0))

    def test_processes_and_callbacks_share_one_fifo(self):
        # A process waiting on an Event wired to the core and host I/O
        # (callbacks) contend for the bus: whoever asked first is served
        # first, whatever kind of caller it is.
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        served = []

        def gc_step(tag, start):
            done = Event(sim)
            start(done.succeed)
            yield done
            served.append((tag, sim.now))

        def host_read(tag):
            channel.submit("read", PSSD.read_latency(4.0),
                           lambda: served.append((tag, sim.now)))

        host_read("host-0")                                      # takes the bus
        sim.spawn(gc_step("gc-program", partial(                 # t=0
            channel.submit, "program", PSSD.program_latency(4.0))))
        sim.schedule_after(1.0, lambda: host_read("host-1"))
        sim.schedule_after(
            2.0, lambda: sim.spawn(gc_step("gc-erase", channel.start_erase)))
        sim.schedule_after(3.0, lambda: host_read("host-2"))
        sim.run(until=5.0)
        assert channel.busy and channel.queue_depth == 4
        sim.run()
        read, program = PSSD.read_latency(4.0), PSSD.program_latency(4.0)
        assert [tag for tag, _ in served] == [
            "host-0", "gc-program", "host-1", "gc-erase", "host-2"]
        assert [t for _, t in served] == pytest.approx([
            read,
            read + program,
            2 * read + program,
            2 * read + program + PSSD.erase_us,
            3 * read + program + PSSD.erase_us,
        ])
        assert channel.op_counts == {"read": 3, "program": 1, "erase": 1}
        assert not channel.busy and channel.queue_depth == 0

    def test_continuation_runs_after_the_bus_moved_on(self):
        # Inside a hop the order is: account, hand the bus to the next
        # command, then continue -- a continuation that looks at the
        # channel sees the successor already in service.
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        seen = []
        channel.submit("read", 10.0, lambda: seen.append(
            (channel.op_counts["read"], channel.busy, channel.queue_depth)))
        channel.submit("read", 10.0, lambda: seen.append(
            (channel.op_counts["read"], channel.busy, channel.queue_depth)))
        sim.run()
        assert seen == [(1, True, 0), (2, False, 0)]
        assert channel.busy_time == pytest.approx(20.0)

    def test_free_bus_costs_one_event_and_no_start_tick(self):
        # A command that finds the bus free is timed from the submit
        # itself: it finishes at exactly now + duration, one event later.
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        sim.schedule_at(7.25, lambda: channel.submit(
            "program", 33.5, lambda: seen.append(sim.now)))
        seen = []
        sim.run(until=7.25)
        assert channel.busy and sim._heap[0][0] == 7.25 + 33.5
        sim.run()
        assert seen == [7.25 + 33.5] and sim.event_count == 2
        assert channel.busy_time == 33.5
        assert channel.op_counts == {"read": 0, "program": 1, "erase": 0}
        assert not channel.busy

    def test_op_counters_and_utilisation(self):
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        channel.submit("program", PSSD.program_latency(4.0), lambda: None)
        sim.run()
        assert channel.op_counts["program"] == 1
        assert channel.busy_time == pytest.approx(sim.now)

    def test_queue_depth_visible(self):
        sim = Simulator()
        channel = Channel(sim, 0, PSSD)
        for _ in range(3):
            channel.submit("read", PSSD.read_latency(4.0), lambda: None)
        sim.run(until=1.0)
        assert channel.queue_depth == 2
        assert channel.busy


class TestSsd:
    def test_assembly_matches_geometry(self):
        sim = Simulator()
        geo = FlashGeometry(channels=4, chips_per_channel=2)
        ssd = Ssd(sim, "ssd-0", geometry=geo)
        assert len(ssd.channels) == 4
        assert len(ssd.chips) == 8

    def test_channel_of_chip(self):
        sim = Simulator()
        geo = FlashGeometry(channels=2, chips_per_channel=2)
        ssd = Ssd(sim, "s", geometry=geo)
        assert ssd.channel_of_chip(ssd.chips[0]).channel_id == 0
        assert ssd.channel_of_chip(ssd.chips[3]).channel_id == 1

    def test_chips_of_channel(self):
        sim = Simulator()
        geo = FlashGeometry(channels=2, chips_per_channel=3)
        ssd = Ssd(sim, "s", geometry=geo)
        chips = ssd.chips_of_channel(1)
        assert [c.chip_id for c in chips] == [3, 4, 5]
        with pytest.raises(ConfigError):
            ssd.chips_of_channel(5)

    def test_fresh_ssd_has_zero_wear(self):
        sim = Simulator()
        ssd = Ssd(sim, "s")
        assert ssd.average_erase_count == 0.0


class TestWearStats:
    def test_tracker_requires_chips(self):
        with pytest.raises(ValueError):
            WearTracker([])

    def test_average_tracks_erases(self):
        chip = FlashChip(0, 2, 2)
        tracker = WearTracker([chip])
        block = chip.blocks[0]
        for _ in range(2):
            block.invalidate(block.program_next())
        block.erase()
        assert tracker.average_erase_count() == 0.5

    def test_imbalance_of_uniform_fleet(self):
        assert wear_imbalance([5.0, 5.0, 5.0]) == 1.0

    def test_imbalance_of_fresh_fleet(self):
        assert wear_imbalance([0.0, 0.0]) == 1.0

    def test_imbalance_detects_hot_device(self):
        lam = wear_imbalance([10.0, 1.0, 1.0])
        assert lam == pytest.approx(10.0 / 4.0)

    def test_variance(self):
        assert wear_variance([1.0, 1.0]) == 0.0
        assert wear_variance([0.0, 2.0]) == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            wear_imbalance([])
        with pytest.raises(ValueError):
            wear_variance([])
