"""GC coordinators: how a server's GC monitor reaches the admission logic.

Three implementations exist across the evaluated systems:

* :class:`~repro.server.gc_monitor.LocalGcCoordinator` -- no coordination
  (VDC and the Coord-I/O ablation): GC always runs immediately.
* :class:`SwitchGcCoordinator` -- RackBlox: gc_op packets to the ToR
  switch's data plane; in-rack wire hops plus (for soft requests) one
  recirculation.
* :class:`ControllerGcCoordinator` -- RackBlox (Software): the same
  admission decisions made by the VDC controller in software, paying a
  controller round trip per request.
"""

import random
from functools import partial
from typing import Callable, Optional

from repro.cluster.controller import VdcController
from repro.net.packet import GcKind, gc_op
from repro.sim import Simulator
from repro.switch.dataplane import SwitchDataPlane
from repro.vssd.vssd import VSsd

#: One-way server <-> ToR wire + serialisation time inside the rack.
IN_RACK_HOP_US = 5.0

_KIND_TO_GC = {"soft": GcKind.SOFT, "regular": GcKind.REGULAR, "bg": GcKind.BG}


class SwitchGcCoordinator:
    """RackBlox: GC admission by the switch data plane (Algorithm 1)."""

    def __init__(
        self,
        sim: Simulator,
        dataplane: SwitchDataPlane,
        server_ip: str,
        drop_rng: Optional[random.Random] = None,
        drop_probability: float = 0.0,
    ) -> None:
        self.sim = sim
        self.dataplane = dataplane
        self.server_ip = server_ip
        self._drop_rng = drop_rng
        self.drop_probability = drop_probability
        self.packets_sent = 0
        self.packets_dropped = 0

    def _maybe_drop(self) -> bool:
        if self.drop_probability <= 0 or self._drop_rng is None:
            return False
        return self._drop_rng.random() < self.drop_probability

    def request_gc(self, vssd: VSsd, kind: str, then: Callable[[str], None]) -> None:
        """Send a gc_op; ``then`` gets 'accept' / 'delay' / 'lost'."""
        pkt = gc_op(vssd.vssd_id, _KIND_TO_GC[kind], src=self.server_ip)
        self.packets_sent += 1

        def at_switch() -> None:
            if self._maybe_drop():
                # Link/switch failure: the ack never arrives; the monitor's
                # retry logic (3 tries for regular GC) takes over.
                self.packets_dropped += 1
                then("lost")
                return
            action = self.dataplane.process_packet(pkt)
            self.sim.schedule_after(
                self.dataplane.gc_op_delay_us(_KIND_TO_GC[kind]) + IN_RACK_HOP_US,
                lambda: then("accept" if action.packet.gc_kind is GcKind.ACCEPT
                             else "delay"))

        self.sim.schedule_after(IN_RACK_HOP_US, at_switch)

    def notify_finish(self, vssd: VSsd, then: Callable[[], None]) -> None:
        self._tell(gc_op(vssd.vssd_id, GcKind.FINISH, src=self.server_ip), then)

    def notify_background(self, vssd: VSsd, then: Callable[[], None]) -> None:
        """Background GC runs without approval; the switch is only told so
        it starts redirecting reads (§3.5.1)."""
        self._tell(gc_op(vssd.vssd_id, GcKind.BG, src=self.server_ip), then)

    def _tell(self, pkt, then: Callable[[], None]) -> None:
        self.packets_sent += 1

        def arrived() -> None:
            if not self._maybe_drop():
                self.dataplane.process_packet(pkt)
            then()

        self.sim.schedule_after(IN_RACK_HOP_US, arrived)


class ControllerGcCoordinator:
    """RackBlox (Software): admission via the centralized controller."""

    def __init__(self, sim: Simulator, controller: VdcController, server_ip: str) -> None:
        self.sim = sim
        self.controller = controller
        self.server_ip = server_ip
        #: Last redirect target granted by the controller, per vSSD --
        #: the server's software-redirect hook reads this.
        self.redirect_targets = {}

    def request_gc(self, vssd: VSsd, kind: str, then: Callable[[str], None]) -> None:
        def decided() -> None:
            verdict, redirect_ip = self.controller.decide_gc(vssd.vssd_id, kind)
            if verdict == "accept" and redirect_ip is not None:
                self.redirect_targets[vssd.vssd_id] = redirect_ip
            then(verdict)

        # tick: the round trip starts one heap entry later
        self.sim.schedule_after(0.0, partial(self.controller.round_trip, decided))

    def notify_finish(self, vssd: VSsd, then: Callable[[], None]) -> None:
        # Fire-and-forget: one-way message to the controller.
        def arrived() -> None:
            self.controller.finish_gc(vssd.vssd_id)
            self.redirect_targets.pop(vssd.vssd_id, None)
            then()

        self.sim.schedule_after(self.controller.ONE_WAY_US, arrived)

    def notify_background(self, vssd: VSsd, then: Callable[[], None]) -> None:
        def arrived() -> None:
            _, redirect_ip = self.controller.decide_gc(vssd.vssd_id, "bg")
            if redirect_ip is not None:
                self.redirect_targets[vssd.vssd_id] = redirect_ip
            then()

        self.sim.schedule_after(self.controller.ONE_WAY_US, arrived)
