"""Replica placement (§3.3, §3.5.1).

RackBlox replicates at vSSD granularity with rack-aware placement: two
replicas inside the rack on different servers (plus one in another rack,
which is outside the intra-rack scheduling scope of the paper and of this
reproduction).  Writes go to every replica; reads go to the primary unless
the switch (or the software layer) redirects them.
"""

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.vssd.vssd import VSsd


@dataclass
class ReplicaPair:
    """One replicated vSSD: the in-rack primary and its in-rack replica."""

    name: str
    primary: VSsd
    replica: VSsd
    primary_server_ip: str
    replica_server_ip: str

    def __post_init__(self) -> None:
        if self.primary.vssd_id == self.replica.vssd_id:
            raise ConfigError("a vSSD cannot replicate to itself")
        if self.primary_server_ip == self.replica_server_ip:
            raise ConfigError(
                f"pair {self.name!r}: replicas must live on different servers "
                "(rack-aware placement)"
            )

    def peer_of(self, vssd_id: int) -> VSsd:
        if vssd_id == self.primary.vssd_id:
            return self.replica
        if vssd_id == self.replica.vssd_id:
            return self.primary
        raise ConfigError(f"vSSD {vssd_id} is not part of pair {self.name!r}")


def rack_aware_placement(num_pairs: int, num_servers: int) -> List[tuple]:
    """(primary_server, replica_server) indices for each pair.

    Primaries round-robin across servers; each replica lands on the next
    server, so no server holds both copies of a pair.
    """
    if num_servers < 2:
        raise ConfigError("rack-aware placement needs at least 2 servers")
    if num_pairs < 1:
        raise ConfigError("need at least one pair")
    return [
        (i % num_servers, (i + 1) % num_servers)
        for i in range(num_pairs)
    ]
