"""In-band Network Telemetry (INT).

RackBlox tracks ``Net_time`` by having each programmable switch add its
per-hop latency (routing + queuing dominate, per [24, 29]) into the LAT
field of the packet as it passes (§3.4).  The accumulated value reaches the
storage server inside the packet itself -- no control-plane involvement --
and ``packet.lat`` is the priority's ``Net_time`` term as the server's
scheduler reads it.
"""

from repro.errors import NetworkError
from repro.net.packet import Packet


def add_hop_latency(packet: Packet, hop_latency_us: float) -> Packet:
    """Accumulate one hop's latency into the packet's LAT field."""
    if hop_latency_us < 0:
        raise NetworkError(f"hop latency must be >= 0, got {hop_latency_us}")
    packet.lat += hop_latency_us
    return packet

