"""Tests for In-band Network Telemetry (`repro/net/int_telemetry.py`).

The LAT field is the paper's ``Net_time`` (§3.4): every switch adds its
per-hop latency into the packet as it passes, and the accumulated value
must survive the round trip into the storage server's scheduler, which
reads it as ``packet.lat``.
"""

import pytest

from repro.errors import NetworkError
from repro.net.int_telemetry import add_hop_latency
from repro.net.packet import OpType, Packet, read_request


def make_packet() -> Packet:
    return Packet(op=OpType.READ, vssd_id=1, src="client", dst="server")


class TestLatAccumulation:
    def test_single_hop(self):
        pkt = make_packet()
        add_hop_latency(pkt, 12.5)
        assert pkt.lat == pytest.approx(12.5)

    def test_accumulates_across_multiple_hops(self):
        # A ToR -> aggregation -> core -> aggregation -> ToR path: LAT is
        # the *sum* of per-hop latencies, order-independent.
        pkt = make_packet()
        hops = [3.0, 11.0, 42.5, 11.0, 3.0]
        for hop in hops:
            add_hop_latency(pkt, hop)
        assert pkt.lat == pytest.approx(sum(hops))

    def test_zero_hop_allowed(self):
        pkt = make_packet()
        add_hop_latency(pkt, 0.0)
        assert pkt.lat == 0.0

    def test_returns_same_packet_for_chaining(self):
        pkt = make_packet()
        assert add_hop_latency(pkt, 1.0) is pkt

    def test_fresh_packet_has_zero_net_time(self):
        assert read_request(1, "c", "s", 0.0).lat == 0.0


class TestNetTimeRoundTrip:
    def test_lat_carried_into_response(self):
        # turn_around carries LAT forward, so the client-visible reply
        # still holds the request path's accumulated Net_time.
        pkt = make_packet()
        add_hop_latency(pkt, 33.0)
        response = pkt.turn_around(4.0)
        assert response.lat == pytest.approx(33.0)
        # The return path keeps accumulating on top.
        add_hop_latency(response, 7.0)
        assert response.lat == pytest.approx(40.0)


class TestValidation:
    def test_negative_hop_latency_rejected(self):
        pkt = make_packet()
        with pytest.raises(NetworkError):
            add_hop_latency(pkt, -0.001)

    def test_rejected_hop_leaves_lat_untouched(self):
        pkt = make_packet()
        add_hop_latency(pkt, 5.0)
        with pytest.raises(NetworkError):
            add_hop_latency(pkt, -1.0)
        assert pkt.lat == pytest.approx(5.0)
