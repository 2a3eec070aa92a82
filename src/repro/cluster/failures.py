"""Failure detection and handling (§3.7, "Others").

Like modern rack-scale storage systems, RackBlox detects failures with
heartbeats.  On server (or link) failure, requests are redirected to the
in-rack replicas -- conveniently through the *same* mechanism as
coordinated GC: setting the dead vSSDs' GC bits in the switch tables makes
Algorithm 1 steer reads to the replica with no new data-plane logic.  On
switch failure, the tables are repopulated from the control plane's
registration log once the switch recovers.

"On server failure, RackBlox replicates the replicas to other servers and
updates their switches": :meth:`FailureManager.rereplicate_pair` restores
the replication factor by building a fresh vSSD on a healthy server,
copying the surviving replica's live data (timed reads + writes through
the flash channels), and re-registering the pair in the switch tables.
"""

from functools import partial
from typing import Callable, Dict, Optional, Set

from repro.cluster.rack import Rack
from repro.cluster.replication import ReplicaPair
from repro.errors import ConfigError
from repro.flash.gc import GreedyGcPolicy
from repro.flash.ssd import Ssd
from repro.sim.core import MSEC
from repro.switch.dataplane import SwitchDataPlane
from repro.vssd.allocator import VssdAllocator


class FailureManager:
    """Heartbeat-driven failure detection for one rack."""

    def __init__(
        self,
        rack: Rack,
        heartbeat_interval_us: float = 10 * MSEC,
        miss_threshold: int = 3,
    ) -> None:
        if heartbeat_interval_us <= 0:
            raise ConfigError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ConfigError("miss threshold must be >= 1")
        self.rack = rack
        self.sim = rack.sim
        self.heartbeat_interval_us = heartbeat_interval_us
        self.miss_threshold = miss_threshold
        self._missed: Dict[str, int] = {s.ip: 0 for s in rack.servers}
        self._handled: Set[str] = set()
        self.failures_detected = 0
        self.recoveries = 0
        self.rereplications = 0
        # Sim timestamps of detections/recoveries, for MTTR accounting.
        self.detected_at: Dict[str, float] = {}
        self.recovered_at: Dict[str, float] = {}
        self._running = False
        #: True from a start until the heartbeat loop sees the stop.
        self._looping = False

    def start(self) -> None:
        """Start the heartbeat loop (idempotent while running)."""
        self._running = True
        if self._looping:
            # One loop is plenty: a restart before the stopped loop drained
            # its final wait just re-arms it instead of stacking loops.
            return
        self._looping = True
        # tick: the loop starts one heap entry later
        self.sim.schedule_after(0.0, self._heartbeat)

    def stop(self) -> None:
        """Ask the heartbeat loop to exit at its next tick (idempotent).

        After the loop wakes once more it returns, so a caller done with
        the rack does not leak a perpetual timer that would keep the event
        heap busy forever.  Nothing in the package stops one today: a rack
        armed with a fault schedule heartbeats until it is dropped.
        """
        self._running = False

    def _heartbeat(self, check: bool = False) -> None:
        # One turn: check the servers (not on the first), then wait an
        # interval, re-read each time: heartbeat_jitter changes it mid-run.
        if not self._running:
            self._looping = False
            return
        if check:
            for server in self.rack.servers:
                # rack.servers can grow after construction (re-replication
                # targets); default unseen IPs to zero misses so brand-new
                # servers are health-checked from their first tick.
                if server.alive:
                    self._missed[server.ip] = 0
                    continue
                missed = self._missed.get(server.ip, 0) + 1
                self._missed[server.ip] = missed
                if missed >= self.miss_threshold and server.ip not in self._handled:
                    self._on_server_failure(server.ip)
        self.sim.schedule_after(self.heartbeat_interval_us, partial(self._heartbeat, True))

    @property
    def detection_delay_us(self) -> float:
        """Worst-case time from crash to detection."""
        return self.heartbeat_interval_us * (self.miss_threshold + 1)

    # ------------------------------------------------------------- injection

    def fail_server(self, ip: str) -> None:
        """Crash a server: it stops processing and answering packets."""
        server = self.rack.server_by_ip.get(ip)
        if server is None:
            raise ConfigError(f"no server with ip {ip}")
        server.alive = False

    def recover_server(self, ip: str) -> None:
        """Bring a server back; its vSSDs serve again after bits clear."""
        server = self.rack.server_by_ip.get(ip)
        if server is None:
            raise ConfigError(f"no server with ip {ip}")
        server.alive = True
        self._missed[ip] = 0
        if ip in self._handled:
            self._handled.discard(ip)
            for vssd in server.vssds:
                if vssd.vssd_id in self.rack.switch.replica_table:
                    self.rack.switch.replica_table.set_gc_status(vssd.vssd_id, 0)
                    self.rack.switch.destination_table.set_gc_status(vssd.vssd_id, 0)
            self.rack.failed_ips.discard(ip)
            self.recoveries += 1
            self.recovered_at[ip] = self.sim.now

    def _on_server_failure(self, ip: str) -> None:
        """Redirect the dead server's vSSDs to their replicas."""
        self._handled.add(ip)
        self.failures_detected += 1
        self.detected_at[ip] = self.sim.now
        self.rack.failed_ips.add(ip)
        server = self.rack.server_by_ip[ip]
        for vssd in server.vssds:
            if vssd.vssd_id in self.rack.switch.replica_table:
                # Reuse the coordinated-GC redirection path: a set GC bit
                # makes Algorithm 1 send reads to the replica.
                self.rack.switch.replica_table.set_gc_status(vssd.vssd_id, 1)
                self.rack.switch.destination_table.set_gc_status(vssd.vssd_id, 1)

    # -------------------------------------------------------- re-replication

    def rereplicate_pair(
        self, pair: ReplicaPair, then: Callable[[int], None],
        target_ip: Optional[str] = None,
    ) -> None:
        """Restore a pair's replication factor after a failure; ``then``
        gets the number of pages copied once the pair is whole again.

        The dead member is replaced by a fresh vSSD on ``target_ip`` (or
        the least-loaded healthy server that holds neither copy).  Live
        data is copied from the surviving replica -- each mapped page is
        a timed read on the survivor plus a timed write on the new vSSD,
        so re-replication competes with foreground traffic exactly as it
        would in production.  Finishes by re-registering the pair in the
        switch tables and clearing the fail-over redirection bits.  A pair
        with no dead member, or no server to rebuild on, raises
        ``ConfigError`` at once, before anything is scheduled.
        """
        _dead_ip, survivor, dead_vssd = self._locate_dead_member(pair)
        target = self._pick_target(pair, target_ip)
        # tick: the rebuild starts one heap entry later
        self.sim.schedule_after(0.0, partial(
            self._rebuild, pair, survivor, dead_vssd, target, then))

    def _rebuild(self, pair: ReplicaPair, survivor, dead_vssd, target,
                 then: Callable[[int], None]) -> None:
        config = self.rack.config
        ssd = Ssd(
            self.sim,
            ssd_id=f"ssd-rerepl-{pair.name}-{dead_vssd.vssd_id}",
            geometry=config.vssd_geometry,
            profile=config.device_profile,
        )
        allocator = VssdAllocator(ssd)
        new_vssd = allocator.create_hardware_isolated(
            f"{pair.name}-rebuilt",
            channels=list(range(config.vssd_geometry.channels)),
            overprovision=config.overprovision,
            gc_policy=GreedyGcPolicy(
                gc_threshold=config.gc_threshold,
                soft_threshold=config.soft_threshold,
            ),
        )
        target.host_vssd(new_vssd)
        lpns = survivor.ftl.mapped_lpns()

        def copy(index: int) -> None:
            # The survivor's live pages, one at a time: read there, then
            # write here.
            if index == len(lpns):
                self._rewire(pair, survivor, dead_vssd, new_vssd, target)
                then(index)
                return
            write = partial(new_vssd.start_write, lpns[index], partial(copy, index + 1))
            # tick: the read, and after it the write, each one heap entry later
            self.sim.schedule_after(0.0, partial(
                survivor.start_read, lpns[index],
                partial(self.sim.schedule_after, 0.0, write)))

        copy(0)

    def _rewire(self, pair: ReplicaPair, survivor, dead_vssd, new_vssd, target) -> None:
        """Point the pair object, the rack's lookup tables and the switch
        at the rebuilt member."""
        rack = self.rack
        if pair.primary is dead_vssd:
            pair.primary = new_vssd
            pair.primary_server_ip = target.ip
        else:
            pair.replica = new_vssd
            pair.replica_server_ip = target.ip
        rack.pair_by_vssd.pop(dead_vssd.vssd_id, None)
        rack.pair_by_vssd[new_vssd.vssd_id] = pair
        rack.vssd_by_id.pop(dead_vssd.vssd_id, None)
        rack.vssd_by_id[new_vssd.vssd_id] = new_vssd
        # Update the switch: deregister the dead member, register the new
        # one, and point the survivor's replica entry at it.
        if dead_vssd.vssd_id in rack.switch.replica_table:
            rack.switch.replica_table.remove(dead_vssd.vssd_id)
        if dead_vssd.vssd_id in rack.switch.destination_table:
            rack.switch.destination_table.remove(dead_vssd.vssd_id)
        rack.switch.replica_table.insert(new_vssd.vssd_id, survivor.vssd_id)
        rack.switch.destination_table.insert(new_vssd.vssd_id, target.ip)
        surviving_entry = rack.switch.replica_table.get(survivor.vssd_id)
        if surviving_entry is not None:
            surviving_entry.replica_vssd_id = new_vssd.vssd_id
            rack.switch.replica_table.set_gc_status(survivor.vssd_id, 0)
            rack.switch.destination_table.set_gc_status(survivor.vssd_id, 0)
        # Keep the control plane's registration log in step: a later
        # switch reboot repopulates the tables from it, so it must name
        # the rebuilt member, not the dead one.
        rack.control_plane.replace_registration(
            dead_vssd.vssd_id, new_vssd.vssd_id, target.ip
        )
        self.rereplications += 1

    def _locate_dead_member(self, pair: ReplicaPair):
        primary_dead = pair.primary_server_ip in self.rack.failed_ips
        replica_dead = pair.replica_server_ip in self.rack.failed_ips
        if primary_dead == replica_dead:
            raise ConfigError(
                f"pair {pair.name!r}: exactly one member must be on a failed "
                f"server (primary dead={primary_dead}, replica dead={replica_dead})"
            )
        if primary_dead:
            return pair.primary_server_ip, pair.replica, pair.primary
        return pair.replica_server_ip, pair.primary, pair.replica

    def _pick_target(self, pair: ReplicaPair, target_ip: Optional[str]):
        rack = self.rack
        if target_ip is not None:
            server = rack.server_by_ip.get(target_ip)
            if server is None or not server.alive:
                raise ConfigError(f"target {target_ip!r} is unknown or dead")
            return server
        exclude = {pair.primary_server_ip, pair.replica_server_ip}
        candidates = [
            s for s in rack.servers
            if s.alive and s.ip not in rack.failed_ips and s.ip not in exclude
        ]
        if not candidates:
            raise ConfigError("no healthy server available for re-replication")
        return min(candidates, key=lambda s: len(s.vssds))

    # ------------------------------------------------------------- switch

    def fail_and_recover_switch(self) -> None:
        """Replace the ToR data plane and repopulate it (switch reboot).

        The control plane's registration log rebuilds both tables with GC
        state reinitialised -- any in-flight GC admission is re-requested
        by the servers' periodic monitors.
        """
        fresh = SwitchDataPlane()
        self.rack.control_plane.repopulate(fresh)
        self.rack.switch = fresh
        for coordinator in self.rack._gc_coordinators.values():  # noqa: SLF001
            if hasattr(coordinator, "dataplane"):
                coordinator.dataplane = fresh
        # Repopulation reinitialises GC state, which would also forget
        # fail-over redirects for servers that are still down: re-arm
        # their vSSDs' bits so reads keep steering to the replicas.
        for ip in sorted(self._handled):
            server = self.rack.server_by_ip.get(ip)
            if server is None:
                continue
            for vssd in server.vssds:
                if vssd.vssd_id in fresh.replica_table:
                    fresh.replica_table.set_gc_status(vssd.vssd_id, 1)
                    fresh.destination_table.set_gc_status(vssd.vssd_id, 1)
