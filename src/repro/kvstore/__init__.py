"""A key-value store built on the RackBlox substrate.

:class:`~repro.kvstore.store.RackKvStore` is a replicated
GET/PUT/DELETE/SCAN API over the simulated rack: keys hash to vSSD pairs,
writes fan out to both replicas (a commit on all DRAM copies), reads ride
the switch's GC-aware redirection like any other RackBlox read.
"""

from repro.kvstore.store import RackKvStore

__all__ = ["RackKvStore"]
