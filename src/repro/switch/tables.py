"""The RackBlox switch tables (Figure 5).

Two tables live in the switch data plane, sized for on-chip SRAM:

* **replica table** -- vSSD_ID -> (GC status [1 B], replica vSSD_ID [4 B]);
* **destination table** -- vSSD_ID -> (GC status [1 B], server IP [4 B]).

GC status fields are modelled as data-plane *registers* (updatable per
packet without control-plane involvement), matching the paper's P4
implementation which spends 128 KB of stateful memory on them.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SwitchError

#: Paper's sizing bound: 64 servers x 16 SSDs x 128 vSSDs.
MAX_VSSDS_PER_RACK = 64 * 16 * 128


@dataclass
class ReplicaEntry:
    gc_status: int  # 1 byte: 0 = idle, 1 = collecting
    replica_vssd_id: int  # 4 bytes

    ENTRY_BYTES = 1 + 4


@dataclass
class DestinationEntry:
    gc_status: int  # 1 byte
    server_ip: str  # 4 bytes on the wire (dotted quad here)

    ENTRY_BYTES = 1 + 4


class _RegisterTable:
    """Shared machinery: bounded table with register-backed GC bits."""

    entry_bytes = 5

    def __init__(self, capacity: int = MAX_VSSDS_PER_RACK) -> None:
        if capacity <= 0:
            raise SwitchError(f"table capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vssd_id: int) -> bool:
        return vssd_id in self._entries

    def remove(self, vssd_id: int) -> None:
        if vssd_id not in self._entries:
            raise SwitchError(f"vSSD {vssd_id} not present in table")
        del self._entries[vssd_id]

    def ids(self) -> List[int]:
        """Installed vSSD ids, sorted (for audits against the log)."""
        return sorted(self._entries)

    def _check_capacity(self, vssd_id: int) -> None:
        if vssd_id not in self._entries and len(self._entries) >= self.capacity:
            raise SwitchError(
                f"table full ({self.capacity} entries); cannot insert vSSD {vssd_id}"
            )


class ReplicaTable(_RegisterTable):
    """vSSD -> (gc_status, replica vSSD) -- consulted on the read path."""

    def insert(self, vssd_id: int, replica_vssd_id: int, gc_status: int = 0) -> None:
        self._check_capacity(vssd_id)
        self._entries[vssd_id] = ReplicaEntry(gc_status, replica_vssd_id)

    def get(self, vssd_id: int) -> Optional[ReplicaEntry]:
        return self._entries.get(vssd_id)

    def gc_status(self, vssd_id: int) -> int:
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in replica table")
        return entry.gc_status

    def set_gc_status(self, vssd_id: int, status: int) -> None:
        if status not in (0, 1):
            raise SwitchError(f"gc_status is a 1-bit register; got {status}")
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in replica table")
        entry.gc_status = status

    def replica_of(self, vssd_id: int) -> int:
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in replica table")
        return entry.replica_vssd_id


class DestinationTable(_RegisterTable):
    """vSSD -> (gc_status, server IP) -- the forwarding target."""

    def insert(self, vssd_id: int, server_ip: str, gc_status: int = 0) -> None:
        self._check_capacity(vssd_id)
        self._entries[vssd_id] = DestinationEntry(gc_status, server_ip)

    def get(self, vssd_id: int) -> Optional[DestinationEntry]:
        return self._entries.get(vssd_id)

    def server_ip(self, vssd_id: int) -> str:
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in destination table")
        return entry.server_ip

    def gc_status(self, vssd_id: int) -> int:
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in destination table")
        return entry.gc_status

    def set_gc_status(self, vssd_id: int, status: int) -> None:
        if status not in (0, 1):
            raise SwitchError(f"gc_status is a 1-bit register; got {status}")
        entry = self._entries.get(vssd_id)
        if entry is None:
            raise SwitchError(f"vSSD {vssd_id} not in destination table")
        entry.gc_status = status
