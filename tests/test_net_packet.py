"""Tests for the RackBlox packet format, latency models, and INT."""

import random

import pytest

from repro.errors import ConfigError, NetworkError
from repro.net import (
    FAST_NETWORK,
    GcKind,
    LatencyProcess,
    MEDIUM_NETWORK,
    OpType,
    Packet,
    SLOW_NETWORK,
    add_hop_latency,
)
from repro.net.packet import (
    create_vssd,
    gc_op,
    read_request,
    write_request,
)


class TestPacketFormat:
    def test_table1_has_five_operations(self):
        assert {op.name for op in OpType} == {
            "CREATE_VSSD", "DEL_VSSD", "WRITE", "READ", "GC_OP",
        }

    def test_gc_field_values_match_paper(self):
        # §3.5.1 fixes the wire values: soft=0, regular=1, bg=2, accept=3,
        # delay=4, finish=5.
        assert GcKind.SOFT == 0
        assert GcKind.REGULAR == 1
        assert GcKind.BG == 2
        assert GcKind.ACCEPT == 3
        assert GcKind.DELAY == 4
        assert GcKind.FINISH == 5

    def test_vssd_id_must_fit_four_bytes(self):
        with pytest.raises(NetworkError):
            Packet(op=OpType.READ, vssd_id=2**32)

    def test_gc_kind_accessor(self):
        pkt = gc_op(7, GcKind.SOFT, src="10.0.0.1")
        assert pkt.gc_kind is GcKind.SOFT
        plain = read_request(1, "c", "s", 0.0)
        assert plain.gc_kind is None

    def test_response_swaps_endpoints_and_keeps_lat(self):
        pkt = read_request(9, "client", "server", issue_time=5.0)
        add_hop_latency(pkt, 40.0)
        pkt.payload["rid"] = 7
        resp = pkt.turn_around(4.0)
        # In place: the request becomes its own reply.
        assert resp is pkt and resp.payload == {"rid": 7}
        assert resp.src == "server" and resp.dst == "client"
        assert resp.lat == 40.0 and resp.size_kb == 4.0
        assert resp.is_response
        assert resp.issue_time == 5.0

    def test_read_write_sizes_are_asymmetric(self):
        # Reads: small request, 4KB response; writes: the reverse (§3.4
        # keeps separate predictor windows because of this asymmetry).
        read = read_request(1, "c", "s", 0.0)
        write = write_request(1, "c", "s", 0.0)
        assert read.size_kb < write.size_kb

    def test_create_vssd_payload(self):
        pkt = create_vssd(11, "10.0.0.16", 12, "10.0.0.20")
        assert pkt.op is OpType.CREATE_VSSD
        assert pkt.payload == {
            "server_ip": "10.0.0.16",
            "replica_vssd_id": 12,
            "replica_ip": "10.0.0.20",
        }

    def test_packet_ids_unique(self):
        a = read_request(1, "c", "s", 0.0)
        b = read_request(1, "c", "s", 0.0)
        assert a.packet_id != b.packet_id


class TestIntTelemetry:
    def test_hops_accumulate(self):
        pkt = read_request(1, "c", "s", 0.0)
        add_hop_latency(pkt, 10.0)
        add_hop_latency(pkt, 15.0)
        assert pkt.lat == 25.0

    def test_negative_hop_rejected(self):
        pkt = read_request(1, "c", "s", 0.0)
        with pytest.raises(NetworkError):
            add_hop_latency(pkt, -1.0)


class TestLatencyModels:
    def test_three_regimes_ordered(self):
        assert FAST_NETWORK.base_us < MEDIUM_NETWORK.base_us < SLOW_NETWORK.base_us

    def test_sampling_is_positive(self):
        proc = LatencyProcess(FAST_NETWORK, random.Random(1))
        assert all(proc.sample(float(t)) > 0 for t in range(100))

    def test_deterministic_given_seed(self):
        a = LatencyProcess(FAST_NETWORK, random.Random(7))
        b = LatencyProcess(FAST_NETWORK, random.Random(7))
        assert [a.sample(0.0) for _ in range(10)] == [b.sample(0.0) for _ in range(10)]

    def test_median_near_base(self):
        proc = LatencyProcess(MEDIUM_NETWORK, random.Random(3))
        # Sample at t=0 slices before any congestion episode with high
        # probability; use many draws at fixed (uncongested) time.
        draws = sorted(proc.sample(0.0) for _ in range(2001))
        median = draws[1000]
        assert median == pytest.approx(MEDIUM_NETWORK.base_us, rel=0.2)

    def test_congestion_inflates_latency(self):
        proc = LatencyProcess(FAST_NETWORK, random.Random(11))
        # Find a congested instant by scanning the schedule.
        t = 0.0
        while not proc.congested(t) and t < 60e6:
            t += 10_000.0
        assert proc.congested(t), "no congestion episode found in 60s"
        congested = sorted(proc.sample(t) for _ in range(501))[250]
        clear = sorted(proc.sample(0.0) for _ in range(501))[250]
        assert congested > clear * 3

    def test_congestion_schedule_is_consistent(self):
        proc = LatencyProcess(FAST_NETWORK, random.Random(5))
        probe_times = [i * 5000.0 for i in range(200)]
        first = [proc.congested(t) for t in probe_times]
        second = [proc.congested(t) for t in probe_times]
        assert first == second

    def test_profile_validation(self):
        from repro.net.latency import NetworkProfile

        with pytest.raises(ConfigError):
            NetworkProfile("x", base_us=0, sigma=1, congestion_factor=2,
                           congestion_on_us=1, congestion_off_us=1)
        with pytest.raises(ConfigError):
            NetworkProfile("x", base_us=1, sigma=1, congestion_factor=0.5,
                           congestion_on_us=1, congestion_off_us=1)

    def test_profile_lookup(self):
        from repro.net.latency import profile_by_name

        assert profile_by_name("slow") is SLOW_NETWORK
        with pytest.raises(ConfigError):
            profile_by_name("warp")
