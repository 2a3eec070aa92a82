"""The VDC controller (§4.1).

VDC runs "a logically centralized controller that allocates resources to
each tenant's VDC as well as each tenant's I/O flows", enforcing isolation
with multi-resource token-bucket rate limiting.  The controller lives on a
separate server, so every interaction costs an in-rack round trip plus
host software overhead.

What the model times is the controller's GC side: its per-tenant flow
rates are not modelled (the egress schedulers and token buckets enforce
isolation), so nothing here tracks flow demand.

For RackBlox (Software) the controller is additionally made **GC-aware**:
it mirrors the switch's admission logic (accept / delay) in software and,
when granting GC, returns the location of a replica that is *not*
collecting so the server can redirect reads itself.
"""

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.sim import Simulator


class VdcController:
    """Centralized GC controller running on its own server."""

    #: One-way latency to reach the controller: two in-rack wire hops
    #: (server -> ToR -> controller server) plus kernel/IPC overhead.
    ONE_WAY_US = 60.0
    #: Controller-side processing per request.
    PROCESSING_US = 15.0

    def __init__(self, sim: Simulator, gc_aware: bool = False, latency_fn=None) -> None:
        self.sim = sim
        self.gc_aware = gc_aware
        #: One-way network latency sampler; defaults to the fixed in-rack
        #: constant when the controller is used standalone in tests.
        self.latency_fn = latency_fn
        #: Software mirror of the switch's GC state: vssd_id -> collecting?
        self._gc_state: Dict[int, bool] = {}
        #: vssd_id -> (replica_vssd_id, replica_server_ip)
        self._replicas: Dict[int, Tuple[int, str]] = {}
        self.gc_requests = 0
        self.gc_delays = 0

    def register_pair(
        self, vssd_id: int, replica_vssd_id: int, replica_server_ip: str
    ) -> None:
        self._replicas[vssd_id] = (replica_vssd_id, replica_server_ip)
        self._gc_state.setdefault(vssd_id, False)
        self._gc_state.setdefault(replica_vssd_id, False)

    def _one_way(self) -> float:
        if self.latency_fn is not None:
            return self.latency_fn()
        return self.ONE_WAY_US

    def round_trip(self, then: Callable[[], None]) -> None:
        """One request/response exchange with the controller; ``then()``
        once the response is back."""
        def processed() -> None:
            self.sim.schedule_after(self._one_way(), then)

        self.sim.schedule_after(self._one_way(), partial(
            self.sim.schedule_after, self.PROCESSING_US, processed))

    def decide_gc(self, vssd_id: int, kind: str) -> Tuple[str, Optional[str]]:
        """Software re-implementation of the switch's admission logic.

        Returns (verdict, redirect_ip): the verdict is ``accept`` or
        ``delay``; on accept the controller also hands back the replica
        server to redirect reads to (None when the controller is not
        GC-aware -- plain VDC never delays or redirects).
        """
        self.gc_requests += 1
        if not self.gc_aware:
            return "accept", None
        if vssd_id not in self._replicas:
            raise ConfigError(f"vSSD {vssd_id} not registered with controller")
        replica_id, replica_ip = self._replicas[vssd_id]
        if kind == "soft" and self._gc_state.get(replica_id, False):
            self.gc_delays += 1
            return "delay", None
        self._gc_state[vssd_id] = True
        return "accept", replica_ip

    def finish_gc(self, vssd_id: int) -> None:
        self._gc_state[vssd_id] = False
