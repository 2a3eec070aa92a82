"""The RackBlox packet format (Figure 6 and Table 1).

The RackBlox header rides inside the L4 payload of ordinary packets:

* ``OP`` (1 byte) -- one of the five operations in Table 1;
* ``vSSD_ID`` (4 bytes) -- the target vSSD;
* ``LAT`` (4 bytes) -- accumulated network latency in microseconds,
  filled in by In-band Network Telemetry as the packet crosses switches.

On the wire that is 9 bytes, network order: ``struct.Struct("!BIi")``
over (op, vssd_id, lat rounded to whole microseconds).  The simulator
passes packets as objects, so nothing here packs or parses it.

``gc_op`` packets carry a 1-byte ``gc`` field in the payload whose values
are given in §3.5: soft=0, regular=1, bg=2, accept=3, delay=4, finish=5.
"""

import enum
import itertools
from typing import Any, Dict, Optional

from repro.errors import NetworkError


class OpType(enum.IntEnum):
    """The five RackBlox operations (Table 1).

    ``DEL_VSSD`` is a code of the format only: no run deletes a vSSD.
    """

    CREATE_VSSD = 1
    DEL_VSSD = 2
    WRITE = 3
    READ = 4
    GC_OP = 5


#: The data-path operations as plain module constants.  On CPython 3.11
#: an ``OpType.READ`` lookup goes through the enum's metaclass at several
#: times the cost of a global read, and every packet is built and
#: dispatched on its op.
OP_READ = OpType.READ
OP_WRITE = OpType.WRITE


class GcKind(enum.IntEnum):
    """Values of the ``gc`` payload field (§3.5.1)."""

    SOFT = 0
    REGULAR = 1
    BG = 2
    ACCEPT = 3
    DELAY = 4
    FINISH = 5


_next_packet_id = itertools.count(1).__next__


class Packet:
    """One RackBlox packet travelling through the simulated rack.

    A hand-written ``__slots__`` class: one is built per request leg, so
    its constructor is on the simulator's per-request path.
    """

    __slots__ = ("op", "vssd_id", "src", "dst", "lat", "payload", "size_kb",
                 "issue_time", "is_response", "packet_id", "rid", "lpn",
                 "trace")

    def __init__(
        self,
        op: OpType,
        vssd_id: int,
        src: str = "",
        dst: str = "",
        lat: float = 0.0,
        payload: Optional[Dict[str, Any]] = None,
        size_kb: float = 0.1,
        issue_time: float = 0.0,
        is_response: bool = False,
        packet_id: Optional[int] = None,
    ) -> None:
        if not isinstance(op, OpType):
            raise NetworkError(f"op must be an OpType, got {op!r}")
        if vssd_id < 0 or vssd_id > 0xFFFFFFFF:
            raise NetworkError(f"vssd_id {vssd_id} does not fit in 4 bytes")
        self.op = op
        self.vssd_id = vssd_id
        self.src = src
        self.dst = dst
        #: Accumulated in-network latency (the LAT header field), microseconds.
        self.lat = lat
        #: The rare operation fields: ``gc`` kind, replica info for
        #: create_vssd, ``proxy_ip``, the server's ``storage_us``.
        self.payload = {} if payload is None else payload
        #: Application-payload size driving serialisation delay.
        self.size_kb = size_kb
        #: Simulated time the originating request was issued.
        self.issue_time = issue_time
        self.is_response = is_response
        self.packet_id = _next_packet_id() if packet_id is None else packet_id
        #: The rack's request id (the key its reply completes), if any.
        self.rid: Optional[int] = None
        #: Logical page the request addresses.
        self.lpn = 0
        #: The sampled request's trace, ``None`` when not traced.
        self.trace = None

    @property
    def gc_kind(self) -> Optional[GcKind]:
        """The gc payload field, if this is a gc_op packet."""
        value = self.payload.get("gc")
        return GcKind(value) if value is not None else None

    def with_gc(self, kind: GcKind) -> "Packet":
        """Set the gc field in place (chainable)."""
        self.payload["gc"] = int(kind)
        return self

    def turn_around(self, size_kb: float) -> "Packet":
        """Make this request its own reply, in place: src/dst swapped,
        ``size_kb`` the reply's size, LAT and payload carried forward."""
        self.src, self.dst = self.dst, self.src
        self.size_kb = size_kb
        self.is_response = True
        return self


# The two request builders pass ``Packet``'s fields by position (op,
# vssd_id, src, dst, lat, payload, size_kb, issue_time): on CPython 3.11
# a class called with keywords builds a dict per call.

def read_request(vssd_id: int, src: str, dst: str, issue_time: float) -> Packet:
    """A 4KB read: tiny request, 4KB response."""
    return Packet(OP_READ, vssd_id, src, dst, 0.0, None, 0.1, issue_time)


def write_request(vssd_id: int, src: str, dst: str, issue_time: float) -> Packet:
    """A 4KB write: 4KB request, tiny response."""
    return Packet(OP_WRITE, vssd_id, src, dst, 0.0, None, 4.0, issue_time)


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
