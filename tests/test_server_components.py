"""Tests for predictor, idle predictor, write cache, GC monitor, server."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.flash import FlashGeometry, Ssd
from repro.net.packet import read_request, write_request
from repro.server import (
    FifoIoScheduler,
    IdlePredictor,
    ReturnLatencyPredictor,
    StorageServer,
    WriteCache,
)
from repro.server.gc_monitor import GcMonitor, LocalGcCoordinator
from repro.sim import Simulator
from repro.sim.core import MSEC
from repro.vssd import VssdAllocator


class TestReturnLatencyPredictor:
    def test_empty_predicts_zero(self):
        pred = ReturnLatencyPredictor()
        assert pred.predict(1, "read") == 0.0

    def test_mean_of_window(self):
        pred = ReturnLatencyPredictor(window=4)
        for v in (10.0, 20.0, 30.0, 40.0):
            pred.observe(1, "read", v)
        assert pred.predict(1, "read") == pytest.approx(25.0)

    def test_window_slides(self):
        pred = ReturnLatencyPredictor(window=2)
        for v in (10.0, 20.0, 100.0):
            pred.observe(1, "read", v)
        assert pred.predict(1, "read") == pytest.approx(60.0)

    def test_reads_and_writes_separate(self):
        # §3.4: separate windows, since response sizes differ.
        pred = ReturnLatencyPredictor()
        pred.observe(1, "read", 10.0)
        pred.observe(1, "write", 1000.0)
        assert pred.predict(1, "read") == 10.0
        assert pred.predict(1, "write") == 1000.0

    def test_vssds_separate(self):
        pred = ReturnLatencyPredictor()
        pred.observe(1, "read", 10.0)
        pred.observe(2, "read", 99.0)
        assert pred.predict(1, "read") == 10.0
        assert pred.predict(2, "read") == 99.0

    def test_default_window_is_100(self):
        # The paper's choice.
        assert ReturnLatencyPredictor().window == 100

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            ReturnLatencyPredictor().predict(1, "fsync")

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            ReturnLatencyPredictor(window=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=300))
    def test_prediction_bounded_by_window_extremes(self, values):
        """Property: the sliding-window mean never leaves [min, max] of the
        last `window` observations."""
        pred = ReturnLatencyPredictor(window=100)
        for v in values:
            pred.observe(7, "read", v)
        tail = values[-100:]
        prediction = pred.predict(7, "read")
        assert min(tail) - 1e-9 <= prediction <= max(tail) + 1e-9

    def test_window_fill(self):
        pred = ReturnLatencyPredictor(window=10)
        assert pred.window_fill(1, "read") == 0
        for _ in range(15):
            pred.observe(1, "read", 5.0)
        assert pred.window_fill(1, "read") == 10


class TestIdlePredictor:
    def test_smoothing_formula(self):
        pred = IdlePredictor(alpha=0.5)
        pred.record_request(0.0)
        pred.record_request(100.0)  # real interval 100
        assert pred._predicted == pytest.approx(50.0)  # 0.5*100 + 0.5*0
        pred.record_request(300.0)  # real interval 200
        assert pred._predicted == pytest.approx(125.0)  # 0.5*200 + 0.5*50

    def test_threshold_gate(self):
        pred = IdlePredictor(alpha=1.0, threshold_us=30 * MSEC)
        pred.record_request(0.0)
        assert not pred.should_background_gc()
        pred.record_request(40 * MSEC)
        assert pred.should_background_gc()

    def test_busy_stream_never_triggers(self):
        pred = IdlePredictor()
        for i in range(100):
            pred.record_request(i * 100.0)  # 100 us apart
        assert not pred.should_background_gc()

    def test_defaults_match_paper(self):
        pred = IdlePredictor()
        assert pred.alpha == 0.5
        assert pred.threshold_us == 30 * MSEC

    def test_validation(self):
        with pytest.raises(ConfigError):
            IdlePredictor(alpha=1.5)
        with pytest.raises(ConfigError):
            IdlePredictor(threshold_us=0)


def make_server(sim=None, cache_pages=64, scheduler=None, **kwargs):
    sim = sim if sim is not None else Simulator()
    geo = FlashGeometry(channels=2, chips_per_channel=2, blocks_per_chip=32,
                        pages_per_block=8)
    ssd = Ssd(sim, "ssd", geometry=geo)
    vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0, 1])
    server = StorageServer(
        sim, "server-0", "10.0.0.1",
        scheduler=scheduler if scheduler is not None else FifoIoScheduler(),
        write_cache=WriteCache(sim, capacity_pages=cache_pages),
        **kwargs,
    )
    server.host_vssd(vssd)
    return sim, server, vssd


class TestWriteCache:
    def test_write_completes_at_dram_speed(self):
        responses = []
        sim, server, vssd = make_server(
            respond_fn=lambda pkt, srv: responses.append((pkt, sim.now))
        )
        pkt = write_request(vssd.vssd_id, "client", server.ip, 0.0)
        pkt.lpn = 3
        server.receive_packet(pkt)
        sim.run(until=50.0)
        # Completed at cache-admission time, long before flash program time.
        assert responses and responses[0][1] < 50.0

    def test_flusher_eventually_writes_to_flash(self):
        sim, server, vssd = make_server()
        pkt = write_request(vssd.vssd_id, "client", server.ip, 0.0)
        pkt.lpn = 3
        server.receive_packet(pkt)
        sim.run(until=100 * MSEC)
        assert vssd.writes_served >= 1
        assert server.write_cache.dirty_pages == 0

    def test_coalescing_hot_page(self):
        sim = Simulator()
        sim2, server, vssd = make_server(sim)
        for _ in range(5):
            pkt = write_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = 7
            server.receive_packet(pkt)
        sim.run(until=10.0)
        assert server.write_cache.coalesced >= 3

    def test_full_cache_blocks_admission(self):
        sim, server, vssd = make_server(cache_pages=4)
        responses = []
        server.respond_fn = lambda pkt, srv: responses.append(sim.now)
        for lpn in range(12):
            pkt = write_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=500 * MSEC)
        assert len(responses) == 12
        assert server.write_cache.full_stalls > 0
        # The stalled writes completed later than the cached ones.
        assert max(responses) > min(responses)

    def test_full_cache_wakes_exactly_one_admission_per_flush(self):
        sim, _, vssd = make_server()
        flushes = []  # (lpn, completion) handed to the stand-in device
        cache = WriteCache(
            sim, capacity_pages=2,
            submit_fn=lambda vssd, lpn, then: flushes.append((lpn, then)),
        )
        admitted = []
        for lpn in range(4):
            cache.start_admit(vssd, lpn, lambda lpn=lpn: admitted.append(lpn))
        # Two fit; the other two park in arrival order.
        assert admitted == [0, 1]
        assert cache.full_stalls == 2
        sim.run(until=1.0)
        assert [lpn for lpn, _ in flushes] == [0, 1]
        assert cache.occupancy == 1.0  # in-flight flushes still hold slots

        flushes[0][1]()  # first flush lands
        assert admitted == [0, 1, 2]
        assert cache.flushes == 1
        flushes[1][1]()
        assert admitted == [0, 1, 2, 3]
        # The woken admissions are dirty pages like any other.
        sim.run(until=2.0)
        assert [lpn for lpn, _ in flushes] == [0, 1, 2, 3]
        assert cache.full_stalls == 2 and cache.admissions == 4

    def test_flusher_dwells_below_the_watermark(self):
        sim, _, vssd = make_server()
        flushes = []
        cache = WriteCache(
            sim, capacity_pages=8, flush_watermark=0.5,
            submit_fn=lambda vssd, lpn, then: flushes.append((sim.now, lpn)),
        )
        cache.start_admit(vssd, 0, lambda: None)
        sim.run(until=150.0)
        cache.start_admit(vssd, 1, lambda: None)  # absorbed by the dwell
        sim.run(until=199.0)
        assert flushes == []
        sim.run(until=1000.0)
        # One page per dwell while pressure stays light.
        assert flushes == [(200.0, 0), (400.0, 1)]

    def test_on_clean_fires_when_the_last_flush_lands(self):
        sim, _, vssd = make_server()
        flushes = []
        cache = WriteCache(
            sim, capacity_pages=4, flush_watermark=0.0,
            submit_fn=lambda vssd, lpn, then: flushes.append(then),
        )
        cleaned = []
        cache.on_clean = lambda: cleaned.append(sim.now)
        assert cache.clean
        for lpn in range(3):
            cache.start_admit(vssd, lpn, lambda: None)
        sim.run(until=1.0)
        assert len(flushes) == 3 and not cache.clean
        flushes[0]()
        flushes[1]()
        assert cleaned == []  # one flush is still in flight
        flushes[2]()
        assert cleaned == [1.0] and cache.clean

    def test_parked_admissions_ack_as_flushes_free_slots(self):
        sim, _, vssd = make_server()
        # Each flush takes 1 us, so the one-page cache holds the second
        # and third admissions until a flush frees the slot.
        cache = WriteCache(
            sim, capacity_pages=1,
            submit_fn=lambda vssd, lpn, then: sim.schedule_after(1.0, then),
        )
        acked = []
        for lpn in range(3):
            cache.start_admit(vssd, lpn, lambda: acked.append(sim.now))
        assert acked == [0.0]
        sim.run(until=10.0)
        assert acked == [0.0, 1.0, 2.0]
        assert cache.admissions == 3 and cache.full_stalls == 2
        assert cache.flushes == 3 and cache.clean

    def test_a_synchronous_flush_never_recurses(self):
        # A device that answers (or refuses) a flush inside the submit
        # call: each completion wakes a parked admission, and the flusher
        # loop -- not a nested call per page -- flushes it.
        sim, _, vssd = make_server()
        depths = []

        def submit(vssd, lpn, then):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)
            then()

        cache = WriteCache(sim, capacity_pages=4, submit_fn=submit)
        admitted = []
        pages = 3 * sys.getrecursionlimit()
        for lpn in range(pages):
            cache.start_admit(vssd, lpn, lambda lpn=lpn: admitted.append(lpn))
        # Below the watermark the first pages wait out a dwell; the rest
        # park behind the full cache.
        assert len(admitted) == 4 and cache.full_stalls == pages - 4
        sim.run(until=1000.0)
        assert admitted == list(range(pages))
        assert cache.admissions == cache.flushes == pages
        assert cache.full_stalls == pages - 4 and cache.clean
        assert max(depths) - min(depths) < 10

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            WriteCache(sim, capacity_pages=0)
        with pytest.raises(ConfigError):
            WriteCache(sim, flush_watermark=1.5)


class TestStorageServerReads:
    def test_read_roundtrip(self):
        responses = []
        sim, server, vssd = make_server(
            respond_fn=lambda pkt, srv: responses.append((pkt, sim.now))
        )
        pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
        pkt.lpn = 0
        server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert len(responses) == 1
        resp, t = responses[0]
        assert resp.is_response and resp.dst == "client"
        assert server.reads_completed == 1

    def test_predictor_fed_from_int_field(self):
        sim, server, vssd = make_server()
        pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
        pkt.lat = 321.0
        pkt.lpn = 0
        server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert server.predictor.predict(vssd.vssd_id, "read") == pytest.approx(321.0)

    def test_inflight_limit_respected(self):
        sim, server, vssd = make_server()
        server.max_inflight = 2
        for lpn in range(6):
            pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=1.0)
        # Only 2 dispatched; 4 still queued.
        assert server.queue_depth() == 4

    def test_slot_is_refilled_before_the_response_goes_out(self):
        # Inside a completion: release the slot, dispatch the next queued
        # request, only then respond.
        seen = []
        sim, server, vssd = make_server(
            respond_fn=lambda pkt, srv: seen.append(
                (srv.reads_completed, srv.queue_depth(), srv._inflight))
        )
        server.max_inflight = 1
        for lpn in range(3):
            pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert seen == [(1, 1, 1), (2, 0, 1), (3, 0, 0)]

    def test_crashed_server_drops_packets_without_leaking_inflight(self):
        from repro.cluster import Rack, RackConfig

        rack = Rack(RackConfig(num_servers=2, num_pairs=1, seed=3))
        pair = rack.pairs[0]
        server = rack.server_by_ip[pair.primary_server_ip]
        # One read is already in the device when the server dies: it
        # finishes and frees its slot.
        first = rack.issue_read(pair, 0)
        while server._inflight == 0:
            rack.sim.run(max_events=1)
        server.alive = False
        dropped = [rack.issue_read(pair, lpn) for lpn in range(1, 6)]
        rack.sim.run(until=rack.sim.now + 50 * MSEC)
        assert first.triggered
        assert not any(event.triggered for event in dropped)
        assert server.reads_received == 1
        assert server._inflight == 0 and server.queue_depth() == 0
        assert not server._vssd_blocked

    def test_bad_address_fails_one_request_alone(self):
        # An lpn outside the vSSD makes the FTL raise; that request is
        # dropped and its slot freed, the simulator and the requests
        # around it carry on.
        responses = []
        sim, server, vssd = make_server(
            respond_fn=lambda pkt, srv: responses.append(pkt.lpn)
        )
        server.max_inflight = 1
        for lpn in (0, vssd.logical_pages + 7, 1):
            pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert server.requests_failed == 1
        assert server.reads_completed == 2 and len(responses) == 2
        assert server._inflight == 0 and not server._vssd_blocked

    def test_synchronous_refusals_are_served_by_one_dispatch_loop(self):
        # Every refusal frees its slot inside the dispatch that handed the
        # request over: the next queued request goes to the device in the
        # same instant, in the policy's order, without a nested dispatch.
        responses = []
        sim, server, vssd = make_server(
            respond_fn=lambda pkt, srv: responses.append(
                (pkt.lpn, sim.now))
        )
        server.max_inflight = 1
        accepted = []
        start_read = vssd.start_read

        def recording_start_read(lpn, then, fail=None):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            accepted.append((lpn, sim.now, depth))
            start_read(lpn, then, fail)

        vssd.start_read = recording_start_read
        bad = vssd.logical_pages
        lpns = [0] + [bad + i for i in range(3 * sys.getrecursionlimit())] + [1]
        for lpn in lpns:
            pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert server.requests_failed == len(lpns) - 2
        assert server.reads_completed == 2 and server._inflight == 0
        [(_, first_done), (last_lpn, _)] = responses
        assert [lpn for lpn, _, _ in accepted] == lpns  # FIFO policy order
        assert last_lpn == 1
        # Every refused request and the last read left when the first
        # read completed, one dispatch loop deep.
        assert {at for _, at, _ in accepted[1:]} == {first_done}
        depths = [depth for _, _, depth in accepted[1:]]
        assert max(depths) == min(depths)

    def test_bad_address_is_contained_behind_the_token_bucket_wait(self):
        from repro.vssd.token_bucket import TokenBucket

        sim, server, vssd = make_server()
        # One token per 100 us: the second request waits before it maps.
        vssd.rate_limiter = TokenBucket(sim, rate_per_sec=1e4, capacity=1)
        for lpn in (0, vssd.logical_pages):
            pkt = read_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=10 * MSEC)
        assert server.reads_completed == 1 and server.requests_failed == 1
        assert server._inflight == 0

    def test_refused_flush_hands_its_cache_slot_back(self):
        sim, server, vssd = make_server(cache_pages=2)
        for lpn in (vssd.logical_pages, 2, 3):
            pkt = write_request(vssd.vssd_id, "client", server.ip, 0.0)
            pkt.lpn = lpn
            server.receive_packet(pkt)
        sim.run(until=100 * MSEC)
        cache = server.write_cache
        assert server.requests_failed == 1 and server.flushes_completed == 2
        assert cache.dirty_pages == 0 and cache.occupancy == 0.0
        assert vssd.writes_served == 2

    def test_unknown_vssd_rejected(self):
        sim, server, vssd = make_server()
        pkt = read_request(9999, "client", server.ip, 0.0)
        with pytest.raises(ConfigError):
            server.receive_packet(pkt)

    def test_duplicate_hosting_rejected(self):
        sim, server, vssd = make_server()
        with pytest.raises(ConfigError):
            server.host_vssd(vssd)


class TestGcMonitor:
    def _dirty_vssd(self, sim, vssd):
        """Rewrite a small working set so the free ratio drops below the
        soft threshold *and* blocks accumulate stale pages for GC."""
        working_set = max(1, vssd.logical_pages // 4)
        lpn = 0
        while vssd.free_block_ratio() >= 0.30:
            vssd.start_write(lpn % working_set, lambda: None)
            sim.run()
            lpn += 1

    def test_local_coordinator_accepts_immediately(self):
        sim, server, vssd = make_server()
        self._dirty_vssd(sim, vssd)
        monitor = GcMonitor(
            sim, [vssd], LocalGcCoordinator(), server.idle_predictors,
            check_interval_us=5 * MSEC,
        )
        monitor.start()
        ratio_before = vssd.free_block_ratio()
        sim.run(until=sim.now + 500 * MSEC)
        assert vssd.gc_runs >= 1
        # GC reclaimed space (erases are 5 ms on the P-SSD, so full
        # recovery to the restore target can span several monitor periods).
        assert vssd.free_block_ratio() > ratio_before

    def test_soft_request_counted(self):
        sim, server, vssd = make_server()
        self._dirty_vssd(sim, vssd)
        monitor = GcMonitor(sim, [vssd], LocalGcCoordinator(),
                            check_interval_us=5 * MSEC)
        monitor.start()
        sim.run(until=sim.now + 50 * MSEC)
        assert monitor.requests_sent["soft"] + monitor.requests_sent["regular"] >= 1

    def test_background_gc_on_idle(self):
        sim, server, vssd = make_server()
        # Create stale pages but stay above the soft threshold.
        for lpn in [*range(vssd.logical_pages // 4), *range(vssd.logical_pages // 8)]:
            vssd.start_write(lpn, lambda: None)
            sim.run()
        assert vssd.gc_needed() is None
        # Simulate a long-idle predictor.
        pred = IdlePredictor()
        pred.record_request(0.0)
        pred.record_request(100 * MSEC)  # predicts 50ms idle > 30ms threshold
        monitor = GcMonitor(
            sim, [vssd], LocalGcCoordinator(), {vssd.vssd_id: pred},
            check_interval_us=5 * MSEC,
        )
        monitor.start()
        sim.run(until=sim.now + 50 * MSEC)
        assert monitor.requests_sent["bg"] >= 1
        assert vssd.gc_runs >= 1

    def test_no_gc_when_clean(self):
        sim, server, vssd = make_server()
        monitor = GcMonitor(sim, [vssd], LocalGcCoordinator(),
                            check_interval_us=5 * MSEC)
        monitor.start()
        sim.run(until=50 * MSEC)
        assert vssd.gc_runs == 0

    def test_interval_validated(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            GcMonitor(sim, [], LocalGcCoordinator(), check_interval_us=0)
