"""Algorithm 1: the RackBlox workflow in the switch data plane.

The data plane processes each RackBlox packet in one match-action pass:

* **writes** are forwarded untouched -- replication needs every replica to
  see the write (§3.5.1);
* **reads** are *redirected* to the replica when the target vSSD is in GC
  and the replica is not;
* **gc_op** packets drive the GC admission state machine: ``regular``
  requests are always accepted, ``soft`` requests are *delayed* when the
  replica is already collecting (this consistency check across the two
  tables requires one packet recirculation, §3.5.1), ``bg`` requests are
  recorded without approval, and ``finish`` clears the GC bits.

The data plane is pure logic over the tables; forwarding delays are the
rack's job.  Counters expose redirects/accepts/delays/recirculations for
the evaluation harness.
"""

from typing import NamedTuple, Optional, Union

from repro.errors import SwitchError
from repro.net.packet import OP_READ, OP_WRITE, GcKind, OpType, Packet
from repro.switch.pipeline import rackblox_passes
from repro.switch.tables import DestinationTable, ReplicaTable


class ForwardAction(NamedTuple):
    """Forward the packet to a storage server (a named tuple: one is
    built per packet)."""

    packet: Packet
    dst_ip: str
    redirected: bool = False


class ReplyAction(NamedTuple):
    """Send a (gc_op) reply straight back to the requesting server."""

    packet: Packet
    dst_ip: str


SwitchAction = Union[ForwardAction, ReplyAction]


class SwitchDataPlane:
    """Executes Algorithm 1 against the replica and destination tables."""

    #: One pipeline traversal on a Tofino-class ASIC (ns-scale; we charge a
    #: conservative fraction of a microsecond).
    PIPELINE_PASS_US = 0.4
    #: Per-packet data-plane latency (one pass).
    pipeline_delay_us = PIPELINE_PASS_US

    def __init__(
        self,
        replica_table: Optional[ReplicaTable] = None,
        destination_table: Optional[DestinationTable] = None,
    ) -> None:
        self.replica_table = replica_table if replica_table is not None else ReplicaTable()
        self.destination_table = (
            destination_table if destination_table is not None else DestinationTable()
        )
        # Data-plane counters.
        self.reads_forwarded = 0
        self.reads_redirected = 0
        self.writes_forwarded = 0
        self.gc_accepted = 0
        self.gc_delayed = 0
        self.gc_finished = 0
        self.recirculations = 0

    def process_packet(self, pkt: Packet) -> SwitchAction:
        """One pipeline pass of Algorithm 1; returns the forwarding action."""
        if pkt.op is OP_WRITE:
            # Line 2-3: writes go to every replica; never redirected.
            self.writes_forwarded += 1
            dst = self.destination_table.server_ip(pkt.vssd_id)
            return ForwardAction(pkt, dst)

        if pkt.op is OP_READ:
            return self._process_read(pkt)

        if pkt.op is OpType.GC_OP:
            return self._process_gc_op(pkt)

        raise SwitchError(
            f"op {pkt.op.name} is a control-plane packet; the data plane "
            "only handles read/write/gc_op"
        )

    # ------------------------------------------------------------- read path

    def _process_read(self, pkt: Packet) -> ForwardAction:
        # Line 4-9: redirect to the replica iff this vSSD is collecting and
        # the replica is not (both collecting -> forward as-is).
        entry = self.replica_table.get(pkt.vssd_id)
        if entry is None:
            raise SwitchError(f"read for unregistered vSSD {pkt.vssd_id}")
        redirected = False
        if entry.gc_status == 1:
            replica = entry.replica_vssd_id
            if self.destination_table.gc_status(replica) == 0:
                pkt.vssd_id = replica
                redirected = True
        dst = self.destination_table.server_ip(pkt.vssd_id)
        pkt.dst = dst
        if redirected:
            self.reads_redirected += 1
        else:
            self.reads_forwarded += 1
        return ForwardAction(pkt, dst, redirected)

    # ----------------------------------------------------------- gc_op path

    def _process_gc_op(self, pkt: Packet) -> ReplyAction:
        kind = pkt.gc_kind
        if kind is None:
            raise SwitchError("gc_op packet missing the gc payload field")
        vssd_id = pkt.vssd_id
        if vssd_id not in self.replica_table:
            raise SwitchError(f"gc_op for unregistered vSSD {vssd_id}")

        # Line 11: the pass begins by marking the vSSD as collecting in the
        # replica table.
        if kind is not GcKind.FINISH:
            self.replica_table.set_gc_status(vssd_id, 1)

        if kind is GcKind.SOFT:
            # Line 12-18.  Checking the *replica's* GC bit lives in the
            # destination table; updating our own bit there too would need a
            # second stateful access in the same stage, so the packet is
            # recirculated once (the paper's consistency workaround).
            self.recirculations += 1
            replica = self.replica_table.replica_of(vssd_id)
            if self.destination_table.gc_status(replica) == 1:
                pkt.with_gc(GcKind.DELAY)
                self.replica_table.set_gc_status(vssd_id, 0)
                self.gc_delayed += 1
            else:
                pkt.with_gc(GcKind.ACCEPT)
                self.destination_table.set_gc_status(vssd_id, 1)
                self.gc_accepted += 1
        elif kind is GcKind.FINISH:
            # Line 19-20: clear both tables' GC bits.
            self.replica_table.set_gc_status(vssd_id, 0)
            self.destination_table.set_gc_status(vssd_id, 0)
            self.gc_finished += 1
        elif kind in (GcKind.REGULAR, GcKind.BG):
            # Line 21-23: regular (and background) GC is never denied.
            self.destination_table.set_gc_status(vssd_id, 1)
            pkt.with_gc(GcKind.ACCEPT)
            self.gc_accepted += 1
        else:
            raise SwitchError(
                f"server sent gc={kind.name}; accept/delay are switch-issued"
            )

        # Line 24: reply returns to the sender.
        pkt.dst = pkt.src
        return ReplyAction(packet=pkt, dst_ip=pkt.dst)

    def gc_op_delay_us(self, kind: GcKind) -> float:
        """Data-plane latency for a gc_op of the given kind.

        The pass count comes from the match-action pipeline model: soft
        requests need a second stateful access to the destination table's
        stage, hence one recirculation (see
        :mod:`repro.switch.pipeline`).
        """
        operation = {
            GcKind.SOFT: "gc_soft",
            GcKind.REGULAR: "gc_regular",
            GcKind.BG: "gc_bg",
            GcKind.FINISH: "gc_finish",
        }.get(kind)
        if operation is None:
            raise SwitchError(f"gc kind {kind.name} has no data-plane program")
        return rackblox_passes(operation) * self.PIPELINE_PASS_US
