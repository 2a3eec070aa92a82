"""The switch control plane.

Handles the slow-path operation of Table 1 that the rack runs:
``create_vssd`` installs the replica/destination entries for a new vSSD
(GC state initialised to 0, §3.3).  Also provides the switch-recovery
repopulation hook used by the failure-handling machinery (§3.7 "Others").
"""

from typing import Dict, Tuple

from repro.errors import SwitchError
from repro.net.packet import OpType, Packet
from repro.switch.dataplane import SwitchDataPlane


class SwitchControlPlane:
    """Thrift-API stand-in: installs table entries."""

    def __init__(self, dataplane: SwitchDataPlane) -> None:
        self.dataplane = dataplane
        #: Registration log, kept so a recovered switch can be repopulated.
        self._registrations: Dict[int, Tuple[str, int, str]] = {}

    def handle_packet(self, pkt: Packet) -> None:
        """Apply a control packet.  ``create_vssd`` is the only one: the
        rack registers every vSSD this way."""
        if pkt.op is OpType.CREATE_VSSD:
            payload = pkt.payload
            missing = {"server_ip", "replica_vssd_id", "replica_ip"} - set(payload)
            if missing:
                raise SwitchError(f"create_vssd payload missing {sorted(missing)}")
            self.register_vssd(
                pkt.vssd_id,
                payload["server_ip"],
                payload["replica_vssd_id"],
                payload["replica_ip"],
            )
        else:
            raise SwitchError(f"control plane cannot handle op {pkt.op.name}")

    def register_vssd(
        self, vssd_id: int, server_ip: str, replica_vssd_id: int, replica_ip: str
    ) -> None:
        """``create_vssd``'s effect (:meth:`handle_packet` runs it):
        install both directions, so the vSSD and its replica are each
        routable and each names the other as its replica."""
        if vssd_id in self._registrations:
            raise SwitchError(f"vSSD {vssd_id} already registered")
        self.dataplane.replica_table.insert(vssd_id, replica_vssd_id, gc_status=0)
        self.dataplane.destination_table.insert(vssd_id, server_ip, gc_status=0)
        # The replica's own entries are installed when *its* create_vssd
        # arrives; install its destination row eagerly so redirection works
        # even before that (idempotent overwrite is rejected, so check).
        if replica_vssd_id not in self.dataplane.destination_table:
            self.dataplane.destination_table.insert(
                replica_vssd_id, replica_ip, gc_status=0
            )
        self._registrations[vssd_id] = (server_ip, replica_vssd_id, replica_ip)

    def registration_log(self) -> Dict[int, Tuple[str, int, str]]:
        """Snapshot of the log: vssd_id -> (server_ip, replica_id, replica_ip).

        This is the ground truth the data-plane tables are audited
        against (and rebuilt from on switch recovery).
        """
        return dict(self._registrations)

    def replace_registration(
        self, old_vssd_id: int, new_vssd_id: int, server_ip: str
    ) -> None:
        """Swap a re-replicated member in the log, log-only.

        The failure manager rewires the data-plane tables itself while
        the rack keeps serving; this keeps the registration log naming
        the rebuilt vSSD (and its partner's replica link) so a later
        switch recovery repopulates correct tables.
        """
        if old_vssd_id not in self._registrations:
            raise SwitchError(f"vSSD {old_vssd_id} was never registered")
        _old_ip, replica_id, replica_ip = self._registrations.pop(old_vssd_id)
        self._registrations[new_vssd_id] = (server_ip, replica_id, replica_ip)
        partner = self._registrations.get(replica_id)
        if partner is not None:
            self._registrations[replica_id] = (partner[0], new_vssd_id, server_ip)

    def repopulate(self, dataplane: SwitchDataPlane) -> None:
        """Reinstall every registration into a fresh data plane.

        Used on switch recovery: the ToR switch's tables are rebuilt from
        the control plane's registration log.
        """
        for vssd_id, (server_ip, replica_id, replica_ip) in self._registrations.items():
            dataplane.replica_table.insert(vssd_id, replica_id, gc_status=0)
            if vssd_id not in dataplane.destination_table:
                dataplane.destination_table.insert(vssd_id, server_ip, gc_status=0)
            if replica_id not in dataplane.destination_table:
                dataplane.destination_table.insert(replica_id, replica_ip, gc_status=0)
        self.dataplane = dataplane
