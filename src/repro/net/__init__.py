"""Network substrate.

Implements the RackBlox packet format (Figure 6, Table 1), datacenter
latency models standing in for the paper's network traces (Fast / Medium /
Slow), In-band Network Telemetry accumulation, and the switch egress
schedulers evaluated in §4.5.2 (token bucket, fair queuing, priority).
"""

from repro.net.int_telemetry import add_hop_latency
from repro.net.latency import (
    FAST_NETWORK,
    MEDIUM_NETWORK,
    NETWORK_PROFILES,
    SLOW_NETWORK,
    LatencyProcess,
    NetworkProfile,
)
from repro.net.packet import GcKind, OpType, Packet
from repro.net.schedulers import (
    EgressPort,
    FairQueueScheduler,
    PriorityScheduler,
    TokenBucketScheduler,
)

__all__ = [
    "OpType",
    "GcKind",
    "Packet",
    "NetworkProfile",
    "LatencyProcess",
    "FAST_NETWORK",
    "MEDIUM_NETWORK",
    "SLOW_NETWORK",
    "NETWORK_PROFILES",
    "add_hop_latency",
    "EgressPort",
    "TokenBucketScheduler",
    "FairQueueScheduler",
    "PriorityScheduler",
]
