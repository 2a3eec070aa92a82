"""The simulated rack: the paper's testbed in one object.

A :class:`Rack` assembles clients, the emulated datacenter network, the
programmable ToR switch, and the storage servers into the end-to-end
request path of §3.7:

1. the client issues a RackBlox packet and the emulated datacenter
   latency (trace-driven in the paper, parametric here) elapses;
2. INT writes the measured network latency into the packet's LAT field;
3. the ToR data plane runs Algorithm 1 (redirection, GC admission) and
   the packet crosses the egress scheduler (TB / FQ / Priority);
4. the storage server runs Algorithm 2 (cache writes, schedule reads);
5. the response traverses the network back and the client records the
   end-to-end latency.

All four evaluated systems share this pipeline; they differ only in which
coordination hooks are armed (see :class:`~repro.cluster.config.SystemType`).
"""

import itertools
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cluster.config import RackConfig, SystemType
from repro.cluster.controller import VdcController
from repro.cluster.coordinators import (
    IN_RACK_HOP_US,
    ControllerGcCoordinator,
    SwitchGcCoordinator,
)
from repro.cluster.replication import ReplicaPair, rack_aware_placement
from repro.errors import ConfigError
from repro.flash.gc import GreedyGcPolicy
from repro.flash.ssd import Ssd
from repro.net.int_telemetry import add_hop_latency
from repro.net.latency import LatencyProcess
from repro.net.packet import (
    OpType,
    Packet,
    create_vssd,
    read_request,
    write_request,
)
from repro.net.schedulers import (
    EgressPort,
    FairQueueScheduler,
    PriorityScheduler,
    TokenBucketScheduler,
)
from repro.server.gc_monitor import GcMonitor, LocalGcCoordinator
from repro.server.iosched import make_scheduler
from repro.server.sdf import StorageServer
from repro.server.write_cache import WriteCache
from repro.sim import Event, Join, Simulator
from repro.sim.rng import RandomSource
from repro.switch.controlplane import SwitchControlPlane
from repro.switch.dataplane import SwitchDataPlane
from repro.trace.tracer import make_tracer
from repro.vssd.allocator import VssdAllocator
from repro.vssd.channel_group import ChannelGroup
from repro.vssd.token_bucket import TokenBucket
from repro.vssd.vssd import VSsd

#: Host software overhead of one user-level proxy traversal (RackBlox
#: Software): kernel network stack + user-space forwarding, paid once on
#: the redirect leg and once on the relayed response.
SOFTWARE_REDIRECT_OVERHEAD_US = 150.0


def _sent_and_forgotten(_pkt: Packet, _sent_at: float) -> None:
    """Egress continuation of background filler: nobody waits for it."""


def _make_network_scheduler(name: str, tb_flow_rate: float = 50_000.0):
    name = name.lower()
    if name == "tb":
        return TokenBucketScheduler(flow_rate_kb_per_sec=tb_flow_rate, burst_kb=64.0)
    if name == "fq":
        return FairQueueScheduler()
    if name == "priority":
        return PriorityScheduler()
    raise ConfigError(f"unknown network scheduler {name!r} (tb/fq/priority)")


class Rack:
    """One rack of the configured system, ready to serve client load."""

    def __init__(self, config: RackConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RandomSource(config.seed)
        #: Fabric latency for control traffic (controller RTTs, redirect
        #: legs).  Client data paths each get their own process -- VMs in
        #: different parts of the datacenter see different congestion, and
        #: that heterogeneity is what coordinated I/O scheduling exploits.
        #: Link-fault multiplier inherited by lazily created client paths.
        self._link_degradation = 1.0
        self.latency = LatencyProcess(config.network_profile, self.rng.stream("net"))
        self._client_latency: Dict[str, LatencyProcess] = {}
        #: Request-level tracing (§3.4's latency decomposition, recorded
        #: span by span).  NullTracer unless the config samples.
        self.tracer = make_tracer(config.trace_sample_rate, seed=config.seed)

        # --- ToR switch -------------------------------------------------
        self.switch = SwitchDataPlane()
        self.control_plane = SwitchControlPlane(self.switch)
        self._egress: Dict[str, EgressPort] = {}

        # --- controller (VDC family only) --------------------------------
        if config.system in (SystemType.VDC, SystemType.RACKBLOX_SOFTWARE):
            self.controller: Optional[VdcController] = VdcController(
                self.sim,
                gc_aware=(config.system is SystemType.RACKBLOX_SOFTWARE),
                latency_fn=lambda: self.latency.sample(self.sim.now),
            )
        else:
            self.controller = None

        # --- storage servers ---------------------------------------------
        self.servers: List[StorageServer] = []
        self.server_by_ip: Dict[str, StorageServer] = {}
        self._gc_coordinators: Dict[str, object] = {}
        self.gc_monitors: List[GcMonitor] = []
        for idx in range(config.num_servers):
            ip = f"10.0.0.{16 + idx}"
            scheduler = make_scheduler(
                config.storage_scheduler, coordinated=config.system.coordinates_io
            )
            server = StorageServer(
                self.sim,
                name=f"server-{idx}",
                ip=ip,
                scheduler=scheduler,
                write_cache=WriteCache(self.sim, capacity_pages=config.write_cache_pages),
                max_inflight=config.max_inflight_per_server,
                respond_fn=self._on_server_response,
            )
            if config.system is SystemType.RACKBLOX_SOFTWARE:
                server.software_redirect_fn = self._software_redirect
            self.servers.append(server)
            self.server_by_ip[ip] = server
            self._egress[ip] = EgressPort(
                self.sim,
                _make_network_scheduler(
                    config.effective_network_scheduler,
                    config.tb_flow_rate_kb_per_sec,
                ),
                rate_kb_per_us=config.egress_rate_kb_per_us,
            )
        #: Shared client-facing egress port (responses towards clients).
        self._client_egress = EgressPort(
            self.sim,
            _make_network_scheduler(
                config.effective_network_scheduler, config.tb_flow_rate_kb_per_sec
            ),
            rate_kb_per_us=config.egress_rate_kb_per_us,
        )

        # --- vSSD pairs ----------------------------------------------------
        self.pairs: List[ReplicaPair] = []
        self.pair_by_vssd: Dict[int, ReplicaPair] = {}
        self.vssd_by_id: Dict[int, VSsd] = {}
        self._build_pairs()

        # --- GC monitors -----------------------------------------------------
        for server in self.servers:
            coordinator = self._make_coordinator(server)
            self._gc_coordinators[server.ip] = coordinator
            monitor = GcMonitor(
                self.sim,
                server.vssds,
                coordinator,
                server.idle_predictors,
                check_interval_us=config.gc_check_interval_us,
            )
            monitor.start()
            self.gc_monitors.append(monitor)

        # --- client plumbing -------------------------------------------------
        #: Request id -> the continuation its reply runs.
        self._pending: Dict[int, Callable[[Packet], None]] = {}
        self._rid = itertools.count(1)
        self.background_packets = 0
        #: Servers the failure detector has declared dead (clients' view).
        self.failed_ips = set()
        if config.background_traffic:
            self.start_background_traffic()

        # --- fault injection -------------------------------------------------
        #: Armed ChaosInjector when the config carries a fault schedule.
        self.chaos = None
        self.failure_manager = None
        if config.fault_schedule is not None:
            self._arm_chaos(config.fault_schedule)

    def _arm_chaos(self, schedule) -> None:
        # Imported lazily: repro.chaos.injector reaches back into cluster
        # machinery, and FailureManager imports this module.
        from repro.chaos.injector import ChaosInjector
        from repro.cluster.failures import FailureManager

        self.failure_manager = FailureManager(
            self,
            heartbeat_interval_us=schedule.heartbeat_interval_us,
            miss_threshold=schedule.miss_threshold,
        )
        self.failure_manager.start()
        self.chaos = ChaosInjector(self, schedule, self.failure_manager)
        self.chaos.arm()

    # ------------------------------------------------------------------ build

    def _build_pairs(self) -> None:
        if self.config.sw_isolated:
            self._build_pairs_sw_isolated()
        else:
            self._build_pairs_hw_isolated()

    def _register_pair(self, pair_idx: int, primary: VSsd, replica: VSsd,
                       primary_ip: str, replica_ip: str) -> None:
        pair = ReplicaPair(
            name=f"pair-{pair_idx}",
            primary=primary,
            replica=replica,
            primary_server_ip=primary_ip,
            replica_server_ip=replica_ip,
        )
        self.pairs.append(pair)
        self.pair_by_vssd[primary.vssd_id] = pair
        self.pair_by_vssd[replica.vssd_id] = pair
        self.vssd_by_id[primary.vssd_id] = primary
        self.vssd_by_id[replica.vssd_id] = replica
        # Table 1: each member announces itself to the ToR switch.
        self.control_plane.handle_packet(
            create_vssd(primary.vssd_id, primary_ip, replica.vssd_id, replica_ip)
        )
        self.control_plane.handle_packet(
            create_vssd(replica.vssd_id, replica_ip, primary.vssd_id, primary_ip)
        )
        if self.controller is not None:
            self.controller.register_pair(primary.vssd_id, replica.vssd_id, replica_ip)
            self.controller.register_pair(replica.vssd_id, primary.vssd_id, primary_ip)

    def _build_pairs_hw_isolated(self) -> None:
        config = self.config
        placement = rack_aware_placement(config.num_pairs, config.num_servers)
        gc_policy_args = dict(
            gc_threshold=config.gc_threshold, soft_threshold=config.soft_threshold
        )
        for pair_idx, (primary_srv, replica_srv) in enumerate(placement):
            vssds = []
            for role, srv_idx in (("p", primary_srv), ("r", replica_srv)):
                server = self.servers[srv_idx]
                ssd = Ssd(
                    self.sim,
                    ssd_id=f"ssd-{srv_idx}-{pair_idx}{role}",
                    geometry=config.vssd_geometry,
                    profile=config.device_profile,
                )
                if config.erase_suspend:
                    for channel in ssd.channels:
                        channel.configure_suspend(True)
                allocator = VssdAllocator(ssd)
                vssd = allocator.create_hardware_isolated(
                    f"pair{pair_idx}-{role}",
                    channels=list(range(config.vssd_geometry.channels)),
                    overprovision=config.overprovision,
                    gc_policy=GreedyGcPolicy(**gc_policy_args),
                )
                server.host_vssd(vssd)
                vssds.append(vssd)
            primary, replica = vssds
            self._register_pair(
                pair_idx,
                primary,
                replica,
                self.servers[primary_srv].ip,
                self.servers[replica_srv].ip,
            )

    def _build_pairs_sw_isolated(self) -> None:
        """Software-isolated pairs: two vSSDs per SSD sharing channels.

        Pairs come in collocated couples (2i, 2i+1): their primaries share
        one SSD's channels on one server (chips split between them), their
        replicas share another SSD on the next server.  Each collocated
        couple forms a channel group that GCs together; isolation between
        the two tenants is token-bucket rate limiting (§3.3, §3.5.2).
        """
        config = self.config
        geometry = config.vssd_geometry
        if geometry.chips_per_channel < 2:
            raise ConfigError(
                "sw_isolated needs >= 2 chips per channel to split between tenants"
            )
        placement = rack_aware_placement(config.num_pairs // 2, config.num_servers)
        gc_policy_args = dict(
            gc_threshold=config.gc_threshold, soft_threshold=config.soft_threshold
        )
        # Token-bucket fair share: roughly half the SSD's program bandwidth.
        ops_per_sec = geometry.channels / 2 * 1e6 / config.device_profile.program_us
        for couple_idx, (primary_srv, replica_srv) in enumerate(placement):
            couple_vssds = []  # [(tenantA, tenantB)] for primary then replica
            for srv_idx in (primary_srv, replica_srv):
                server = self.servers[srv_idx]
                ssd = Ssd(
                    self.sim,
                    ssd_id=f"ssd-{srv_idx}-c{couple_idx}",
                    geometry=geometry,
                    profile=config.device_profile,
                )
                allocator = VssdAllocator(ssd)
                even_chips = [
                    chip.chip_id for chip in ssd.chips
                    if chip.chip_id % geometry.chips_per_channel
                    < geometry.chips_per_channel // 2
                ]
                odd_chips = [
                    chip.chip_id for chip in ssd.chips
                    if chip.chip_id not in set(even_chips)
                ]
                tenants = []
                for label, chips in (("a", even_chips), ("b", odd_chips)):
                    vssd = allocator.create_software_isolated(
                        f"couple{couple_idx}-{label}-srv{srv_idx}",
                        chips=chips,
                        overprovision=config.overprovision,
                        gc_policy=GreedyGcPolicy(**gc_policy_args),
                        rate_limiter=TokenBucket(
                            self.sim, rate_per_sec=ops_per_sec, capacity=64.0
                        ),
                    )
                    server.host_vssd(vssd)
                    tenants.append(vssd)
                ChannelGroup(f"group-{couple_idx}-srv{srv_idx}", tenants)
                couple_vssds.append(tenants)
            (primary_a, primary_b), (replica_a, replica_b) = couple_vssds
            self._register_pair(
                2 * couple_idx, primary_a, replica_a,
                self.servers[primary_srv].ip, self.servers[replica_srv].ip,
            )
            self._register_pair(
                2 * couple_idx + 1, primary_b, replica_b,
                self.servers[primary_srv].ip, self.servers[replica_srv].ip,
            )

    def _make_coordinator(self, server: StorageServer):
        system = self.config.system
        if system is SystemType.RACKBLOX:
            return SwitchGcCoordinator(self.sim, self.switch, server.ip)
        if system is SystemType.RACKBLOX_SOFTWARE:
            assert self.controller is not None
            return ControllerGcCoordinator(self.sim, self.controller, server.ip)
        return LocalGcCoordinator()

    # ------------------------------------------------------------ precondition

    def precondition(self, working_set_fraction: float = 0.5) -> None:
        """Age every vSSD before measurement, as the paper does (§4.1).

        Consumes ``precondition_fill`` of the free blocks with writes over
        the working set, leaving stale pages behind, *without* advancing
        simulated time (pure FTL state transitions).
        """
        fill = self.config.precondition_fill
        if fill <= 0:
            return
        for vssd in self.vssd_by_id.values():
            ftl = vssd.ftl
            working_set = max(1, int(ftl.logical_pages * working_set_fraction))
            target_ratio = 1.0 - fill
            lpn = 0
            while ftl.free_block_ratio() > target_ratio:
                ftl.place_ppn(lpn % working_set)
                lpn += 1

    def working_set_pages(self, pair: ReplicaPair, fraction: float = 0.5) -> int:
        return max(1, int(pair.primary.logical_pages * fraction))

    # ------------------------------------------------------- client -> server

    def new_request_id(self) -> int:
        return next(self._rid)

    def register_pending(self, rid: int, then: Callable[[Packet], None]) -> None:
        """``then(reply)`` runs when request ``rid``'s reply reaches the
        client edge (never, for a leg dropped at a dead server)."""
        self._pending[rid] = then

    def latency_for_client(self, client_name: str) -> LatencyProcess:
        """The (seeded) latency process of one client's network path."""
        process = self._client_latency.get(client_name)
        if process is None:
            process = LatencyProcess(
                self.config.network_profile, self.rng.stream(f"lat-{client_name}")
            )
            process.set_degradation(self._link_degradation)
            self._client_latency[client_name] = process
        return process

    def forget_client(self, client_name: str) -> None:
        """Release a client that will not send again: its network path
        and the idle per-flow state its packets left in the server-facing
        egress policies.  A long-lived caller (the service, once per
        closed connection) uses this to keep both bounded by the clients
        it has open."""
        self._client_latency.pop(client_name, None)
        for port in self._egress.values():
            port.forget_flow(client_name)

    def set_link_degradation(self, factor: float) -> None:
        """Scale every network path by ``factor`` (fault injection).

        Applies to the shared fabric, all existing per-client paths, and
        -- via the stored multiplier -- paths created later.  ``1.0``
        restores healthy links.
        """
        self._link_degradation = factor
        self.latency.set_degradation(factor)
        for process in self._client_latency.values():
            process.set_degradation(factor)

    def degraded(self) -> bool:
        """Whether the rack is inside a known fault window (for tracing)."""
        return bool(self.failed_ips) or self._link_degradation != 1.0

    def send_from_client(self, pkt: Packet, flow_id: str, priority: int = 1) -> None:
        """Launch a packet from a client into the rack.

        The client-to-server leg is a continuation chain rather than a
        spawned process: every packet pays exactly the heap entries its
        waits require, with no generator or start tick -- this path runs
        once per request leg and dominates the simulator's event budget.
        """
        sent_at = self.sim.now
        path = (self._client_latency.get(pkt.src)
                or self.latency_for_client(pkt.src))
        outbound = path.sample(sent_at, "out")
        self.sim.schedule_after(
            outbound,
            partial(self._packet_at_tor, pkt, flow_id, priority, sent_at, outbound),
        )

    # ------------------------------------------------- request injection API

    def start_read(self, pair: ReplicaPair, lpn: int,
                   then: Callable[[Packet], None], client: str = "live",
                   priority: int = 1, target: str = "primary") -> None:
        """Inject one read at the current sim time; ``then(reply)`` runs
        when the response packet reaches the client edge.

        This and :meth:`start_write` are the entry points for anything
        that drives the rack request by request -- the batch
        :class:`~repro.cluster.client.Client` and the live serving bridge
        both go through them, so traced spans and switch redirection
        behave identically for both.  A request leg costs its rack events
        and no waitable of its own.

        ``target="replica"`` addresses the replica vSSD instead of the
        primary (a wire read with ``replica: true``).
        """
        if target not in ("primary", "replica"):
            raise ConfigError(f"read target must be primary|replica, got {target!r}")
        vssd = pair.primary if target == "primary" else pair.replica
        t0 = self.sim.now
        pkt = read_request(vssd.vssd_id, client, "", t0)
        pkt.rid = rid = next(self._rid)
        pkt.lpn = lpn
        if self.tracer.enabled:
            trace = self.tracer.start_request(
                rid, "read", client, t0, lpn=lpn, vssd=pkt.vssd_id
            )
            if trace is not None:
                self._carry_trace(trace, pkt)
        self._pending[rid] = then
        self.send_from_client(pkt, client, priority)

    def start_write(self, pair: ReplicaPair, lpn: int,
                    then: Callable[[List[Packet]], None], client: str = "live",
                    priority: int = 1) -> None:
        """Inject one replicated write; ``then(replies)`` runs with the
        replica responses in leg order (primary first) once every *live*
        replica holds a DRAM copy (§3.5.1 durability).  Replicas the
        failure detector declared dead are skipped; with no live replica
        ``then([])`` runs at once.
        """
        legs = [
            vssd
            for vssd, ip in (
                (pair.primary, pair.primary_server_ip),
                (pair.replica, pair.replica_server_ip),
            )
            if ip not in self.failed_ips
        ]
        if not legs:
            then([])
            return
        join = Join(len(legs), then)
        t0 = self.sim.now
        for index, vssd in enumerate(legs):
            pkt = write_request(vssd.vssd_id, client, "", t0)
            pkt.rid = rid = next(self._rid)
            pkt.lpn = lpn
            # Each replica leg is its own trace: the legs run concurrently
            # through different servers, so per-leg span threads keep the
            # Perfetto rendering linear.
            if self.tracer.enabled:
                trace = self.tracer.start_request(
                    rid, "write", client, t0,
                    lpn=lpn, vssd=vssd.vssd_id,
                    role="primary" if vssd is pair.primary else "replica",
                )
                if trace is not None:
                    self._carry_trace(trace, pkt)
            self._pending[rid] = partial(join.arrive, index)
            self.send_from_client(pkt, client, priority)

    def _carry_trace(self, trace, pkt: Packet) -> None:
        """A sampled leg: ``pkt`` carries ``trace`` through the rack, and
        the trace finishes as the reply reaches the client edge."""
        if self.degraded():
            trace.attrs["degraded"] = True
        pkt.trace = trace

    def issue_read(self, pair: ReplicaPair, lpn: int, client: str = "live",
                   priority: int = 1, target: str = "primary") -> Event:
        """:meth:`start_read` for callers that wait on an event: it fires
        with the response packet."""
        done = Event(self.sim)
        self.start_read(pair, lpn, done.succeed, client, priority, target)
        return done

    def issue_write(self, pair: ReplicaPair, lpn: int, client: str = "live",
                    priority: int = 1) -> Event:
        """:meth:`start_write` for callers that wait on an event: it fires
        with the list of replica responses (already, with none alive)."""
        done = Event(self.sim)
        self.start_write(pair, lpn, done.succeed, client, priority)
        return done

    def _packet_at_tor(self, pkt: Packet, flow_id: str, priority: int,
                       sent_at: float, outbound: float) -> None:
        """Continuation: the packet reached the ToR switch pipeline."""
        add_hop_latency(pkt, outbound)
        trace = pkt.trace
        if trace is not None:
            trace.add_span("net.client_to_tor", sent_at, self.sim.now)
        action = self.switch.process_packet(pkt)
        if trace is not None:
            redirected = getattr(action, "redirected", False)
            if redirected:
                # Surface the fail-over/GC redirect on the trace itself so
                # tail attribution can slice failure-window requests out.
                trace.attrs["redirected"] = True
            trace.instant(
                "switch.pipeline", self.sim.now,
                redirected=redirected,
                dst=action.dst_ip, vssd=action.packet.vssd_id,
            )
        # ToR egress and the in-rack hop are one event: the port calls
        # back IN_RACK_HOP_US after the packet left it.
        self._egress[action.dst_ip].transmit(
            action.packet, flow_id, priority,
            partial(self._deliver_to_server, action.dst_ip, flow_id, self.sim.now),
            IN_RACK_HOP_US,
        )

    def _deliver_to_server(self, dst_ip: str, flow_id: str, enqueued_at: float,
                           pkt: Packet, sent_at: float) -> None:
        """Continuation: the packet left the egress port at ``sent_at`` and
        has now arrived at the server NIC."""
        hop = (sent_at - enqueued_at) + self.switch.pipeline_delay_us
        add_hop_latency(pkt, hop)
        trace = pkt.trace
        if trace is not None:
            trace.add_span("net.tor_egress", enqueued_at, sent_at, flow=flow_id)
            trace.add_span("net.tor_to_server", sent_at, self.sim.now)
        server = self.server_by_ip[dst_ip]
        if not server.alive:
            # A crashed server silently drops traffic until the heartbeat
            # machinery re-routes around it.  The caller's event stays
            # untriggered (it times out); only the rack forgets it.
            self._pending.pop(pkt.rid, None)
            return
        server.receive_packet(pkt)

    # ------------------------------------------------------- server -> client

    def _on_server_response(self, pkt: Packet, server: StorageServer) -> None:
        # The return leg is a continuation chain too (see send_from_client).
        proxy_ip = pkt.payload.pop("proxy_ip", None)
        if proxy_ip is not None:
            # RackBlox (Software): the user-level redirect is a proxy, so
            # the reply relays through the original server before heading
            # back to the client -- one more fabric traversal the
            # switch-based redirect never pays.
            relay_start = self.sim.now
            relay = self.latency.sample(self.sim.now, "ret")
            self.sim.schedule_after(
                relay + SOFTWARE_REDIRECT_OVERHEAD_US,
                lambda: self._response_relayed(pkt, relay, relay_start, proxy_ip),
            )
            return
        self._response_to_tor(pkt)

    def _response_relayed(self, pkt: Packet, relay: float, relay_start: float,
                          proxy_ip: str) -> None:
        """Continuation: the proxied reply reached the original server."""
        add_hop_latency(pkt, relay)
        trace = pkt.trace
        if trace is not None:
            trace.add_span(
                "net.redirect_relay", relay_start, self.sim.now, proxy=proxy_ip
            )
        self._response_to_tor(pkt)

    def _response_to_tor(self, pkt: Packet) -> None:
        self.sim.schedule_after(
            IN_RACK_HOP_US, partial(self._response_at_tor, pkt, self.sim.now)
        )

    def _response_at_tor(self, pkt: Packet, hop_start: float) -> None:
        """Continuation: the reply reached the ToR's client-facing port."""
        trace = pkt.trace
        if trace is not None:
            trace.add_span("net.server_to_tor", hop_start, self.sim.now)
        self._client_egress.transmit(
            pkt, pkt.src, 0, partial(self._response_after_egress, self.sim.now)
        )

    def _response_after_egress(self, enqueued_at: float, pkt: Packet,
                               sent_at: float) -> None:
        """Continuation: the client egress port transmitted the reply."""
        add_hop_latency(pkt, sent_at - enqueued_at)
        trace = pkt.trace
        if trace is not None:
            trace.add_span("net.client_egress", enqueued_at, sent_at)
        # A path forgotten with replies still inside the rack is not
        # re-created for them: they ride the shared fabric's process.
        path = self._client_latency.get(pkt.dst) or self.latency
        self.sim.schedule_after(
            path.sample(sent_at, "ret"),
            partial(self._complete_at_client, pkt, sent_at),
        )

    def _complete_at_client(self, pkt: Packet, return_start: float) -> None:
        """Continuation: the reply arrived at the client edge."""
        trace = pkt.trace
        if trace is not None:
            trace.add_span("net.tor_to_client", return_start, self.sim.now)
        then = self._pending.pop(pkt.rid, None)
        if then is not None:
            if trace is not None:
                self.tracer.finish(trace, self.sim.now)
            then(pkt)

    # -------------------------------------------- software redirection (RB-SW)

    def _software_redirect(self, pkt: Packet, server: StorageServer) -> bool:
        """RackBlox (Software): user-level read redirection at the server.

        Redirects only when the controller granted this vSSD's GC and, at
        grant time, named an idle replica (the paper's protocol).  Costs an
        extra server-to-server traversal plus host software overhead.
        """
        coordinator = self._gc_coordinators.get(server.ip)
        if not isinstance(coordinator, ControllerGcCoordinator):
            return False
        target_ip = coordinator.redirect_targets.get(pkt.vssd_id)
        if target_ip is None:
            return False
        pair = self.pair_by_vssd.get(pkt.vssd_id)
        if pair is None:
            return False
        peer = pair.peer_of(pkt.vssd_id)
        pkt.vssd_id = peer.vssd_id
        pkt.dst = target_ip
        pkt.payload["proxy_ip"] = server.ip
        # tick: the forward starts one heap entry later, and draws its hop
        # latency there
        self.sim.schedule_after(
            0.0, partial(self._forward_between_servers, pkt, target_ip))
        return True

    def _forward_between_servers(self, pkt: Packet, dst_ip: str) -> None:
        # The server-to-server leg rides the same emulated datacenter
        # fabric as client traffic (the paper injects trace latency on
        # every traversal), plus user-level forwarding overhead -- the
        # "additional networking overhead" that keeps RackBlox (Software)
        # below RackBlox (§4.3).
        forward_start = self.sim.now
        hop = self.latency.sample(self.sim.now)

        def forwarded() -> None:
            add_hop_latency(pkt, hop)
            trace = pkt.trace
            if trace is not None:
                trace.add_span(
                    "net.redirect_relay", forward_start, self.sim.now, dst=dst_ip
                )
            self.server_by_ip[dst_ip].receive_packet(pkt)

        self.sim.schedule_after(hop + SOFTWARE_REDIRECT_OVERHEAD_US, forwarded)

    # -------------------------------------------------- background traffic

    def start_background_traffic(
        self,
        rate_iops: float = 2_000.0,
        burst: int = 32,
        period_us: float = 50_000.0,
        priority: int = 0,
        size_kb: float = 4.0,
    ) -> None:
        """Periodic high-priority traffic (the §4.5.2 Priority experiment).

        Bursts of ``burst`` packets at ``priority`` (0 = highest) hit every
        server-facing egress port each ``period_us``, delaying storage
        traffic queued at lower priority.
        """
        burst_fn = partial(self._background_burst, burst, period_us, priority, size_kb)
        # tick: the first period starts one heap entry later
        self.sim.schedule_after(0.0, partial(self.sim.schedule_after, period_us, burst_fn))

    def _background_burst(
        self, burst: int, period_us: float, priority: int, size_kb: float
    ) -> None:
        for port in self._egress.values():
            for _ in range(burst):
                filler = Packet(
                    op=OpType.WRITE, vssd_id=0, src="bg", dst="bg",
                    size_kb=size_kb,
                )
                port.transmit(filler, "bg", priority, _sent_and_forgotten)
                self.background_packets += 1
        self.sim.schedule_after(period_us, partial(
            self._background_burst, burst, period_us, priority, size_kb))

    # ----------------------------------------------------------------- stats

    def redirect_count(self) -> int:
        switch_redirects = self.switch.reads_redirected
        software_redirects = sum(s.software_redirects for s in self.servers)
        return switch_redirects + software_redirects

    def gc_blocked_read_count(self) -> int:
        """Reads whose flash service overlapped a GC pass (Fig. 2's stall)."""
        return sum(s.gc_blocked_reads for s in self.servers)

    def total_gc_runs(self) -> int:
        return sum(v.gc_runs for v in self.vssd_by_id.values())
