"""The RackBlox packet format (Figure 6 and Table 1).

The RackBlox header rides inside the L4 payload of ordinary packets:

* ``OP`` (1 byte) -- one of the five operations in Table 1;
* ``vSSD_ID`` (4 bytes) -- the target vSSD;
* ``LAT`` (4 bytes) -- accumulated network latency in microseconds,
  filled in by In-band Network Telemetry as the packet crosses switches.

``gc_op`` packets carry a 1-byte ``gc`` field in the payload whose values
are given in §3.5: soft=0, regular=1, bg=2, accept=3, delay=4, finish=5.
"""

import enum
import itertools
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import NetworkError


class OpType(enum.IntEnum):
    """The five RackBlox operations (Table 1)."""

    CREATE_VSSD = 1
    DEL_VSSD = 2
    WRITE = 3
    READ = 4
    GC_OP = 5


class GcKind(enum.IntEnum):
    """Values of the ``gc`` payload field (§3.5.1)."""

    SOFT = 0
    REGULAR = 1
    BG = 2
    ACCEPT = 3
    DELAY = 4
    FINISH = 5


_HEADER = struct.Struct("!BIi")  # op, vssd_id, lat (us, rounded)
_packet_seq = itertools.count(1)


@dataclass
class Packet:
    """One RackBlox packet travelling through the simulated rack."""

    op: OpType
    vssd_id: int
    src: str = ""
    dst: str = ""
    #: Accumulated in-network latency (the LAT header field), microseconds.
    lat: float = 0.0
    #: Operation payload: ``gc`` kind, replica info for create_vssd, etc.
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Application-payload size driving serialisation delay.
    size_kb: float = 0.1
    #: Simulated time the originating request was issued.
    issue_time: float = 0.0
    is_response: bool = False
    packet_id: int = field(default_factory=_packet_seq.__next__)

    def __post_init__(self) -> None:
        if not isinstance(self.op, OpType):
            raise NetworkError(f"op must be an OpType, got {self.op!r}")
        if self.vssd_id < 0 or self.vssd_id > 0xFFFFFFFF:
            raise NetworkError(f"vssd_id {self.vssd_id} does not fit in 4 bytes")

    @property
    def gc_kind(self) -> Optional[GcKind]:
        """The gc payload field, if this is a gc_op packet."""
        value = self.payload.get("gc")
        return GcKind(value) if value is not None else None

    def with_gc(self, kind: GcKind) -> "Packet":
        """Set the gc field in place (chainable)."""
        self.payload["gc"] = int(kind)
        return self

    def encode_header(self) -> bytes:
        """Pack the RackBlox header exactly as in Figure 6 (9 bytes)."""
        return _HEADER.pack(int(self.op), self.vssd_id, int(round(self.lat)))

    @classmethod
    def decode_header(cls, data: bytes) -> "Packet":
        """Parse a RackBlox header back into a packet skeleton."""
        if len(data) < _HEADER.size:
            raise NetworkError(
                f"header needs {_HEADER.size} bytes, got {len(data)}"
            )
        op_raw, vssd_id, lat = _HEADER.unpack_from(data)
        try:
            op = OpType(op_raw)
        except ValueError:
            raise NetworkError(f"unknown op code {op_raw}") from None
        return cls(op=op, vssd_id=vssd_id, lat=float(lat))

    def turn_around(self, size_kb: float) -> "Packet":
        """Make this request its own reply, in place: src/dst swapped,
        ``size_kb`` the reply's size, LAT and payload carried forward."""
        self.src, self.dst = self.dst, self.src
        self.size_kb = size_kb
        self.is_response = True
        return self


def read_request(vssd_id: int, src: str, dst: str, issue_time: float) -> Packet:
    """A 4KB read: tiny request, 4KB response."""
    return Packet(
        op=OpType.READ, vssd_id=vssd_id, src=src, dst=dst,
        size_kb=0.1, issue_time=issue_time,
    )


def write_request(vssd_id: int, src: str, dst: str, issue_time: float) -> Packet:
    """A 4KB write: 4KB request, tiny response."""
    return Packet(
        op=OpType.WRITE, vssd_id=vssd_id, src=src, dst=dst,
        size_kb=4.0, issue_time=issue_time,
    )


def gc_op(vssd_id: int, kind: GcKind, src: str, dst: str = "switch") -> Packet:
    """A gc_op control packet."""
    pkt = Packet(op=OpType.GC_OP, vssd_id=vssd_id, src=src, dst=dst)
    return pkt.with_gc(kind)


def create_vssd(
    vssd_id: int, server_ip: str, replica_vssd_id: int, replica_ip: str
) -> Packet:
    """The registration packet sent to the ToR switch on vSSD creation."""
    return Packet(
        op=OpType.CREATE_VSSD,
        vssd_id=vssd_id,
        src=server_ip,
        dst="switch",
        payload={
            "server_ip": server_ip,
            "replica_vssd_id": replica_vssd_id,
            "replica_ip": replica_ip,
        },
    )


def del_vssd(vssd_id: int, server_ip: str) -> Packet:
    """The deregistration packet removing a vSSD from the switch tables."""
    return Packet(op=OpType.DEL_VSSD, vssd_id=vssd_id, src=server_ip, dst="switch")
