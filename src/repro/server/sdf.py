"""The storage server: Algorithm 2's packet-processing workflow.

Reads enter the local I/O scheduler (coordinated or not) and dispatch to
the vSSD's flash channels; writes land in the DRAM cache and complete
immediately (flushed in the background).  The server feeds the
return-latency predictor from the INT field of every incoming packet and
exposes per-request hooks the rack uses to time responses.
"""

from functools import partial
from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.net.packet import OP_READ, OP_WRITE, Packet
from repro.server.idle import IdlePredictor
from repro.server.iosched import IoRequest
from repro.server.predictor import ReturnLatencyPredictor
from repro.server.write_cache import WriteCache
from repro.sim import Simulator
from repro.vssd.vssd import VSsd


class StorageServer:
    """One storage server hosting vSSDs behind an I/O scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        scheduler,
        write_cache: Optional[WriteCache] = None,
        predictor: Optional[ReturnLatencyPredictor] = None,
        max_inflight: int = 8,
        per_vssd_inflight: Optional[int] = None,
        respond_fn: Optional[Callable[[Packet, "StorageServer"], None]] = None,
        software_redirect_fn: Optional[Callable[[Packet, "StorageServer"], bool]] = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {max_inflight}")
        if per_vssd_inflight is not None and per_vssd_inflight < 1:
            raise ConfigError("per_vssd_inflight must be >= 1 when given")
        self.sim = sim
        self.name = name
        self.ip = ip
        self.scheduler = scheduler
        self.write_cache = write_cache if write_cache is not None else WriteCache(sim)
        self.predictor = predictor if predictor is not None else ReturnLatencyPredictor()
        self.max_inflight = max_inflight
        self.respond_fn = respond_fn
        #: RackBlox (Software): a hook that forwards a read to the replica
        #: server when the local vSSD is collecting.  Returns True when the
        #: request was taken over.
        self.software_redirect_fn = software_redirect_fn

        self.per_vssd_inflight = per_vssd_inflight
        #: Cleared when the failure machinery crashes this server.
        self.alive = True
        self._vssds: Dict[int, VSsd] = {}
        self.idle_predictors: Dict[int, IdlePredictor] = {}
        self._inflight = 0
        #: Requests sitting in ``scheduler`` (only this server pushes and
        #: pops it), so dispatch does not ask an empty policy for work.
        self._queued = 0
        #: Per-vSSD device queue depth; keeping it near the vSSD's channel
        #: count keeps the backlog *in the scheduler* (where policy applies),
        #: the way Kyber limits in-device tokens on real hardware.
        self._vssd_inflight: Dict[int, int] = {}
        self._vssd_limit: Dict[int, int] = {}
        #: vSSDs currently at their device-queue limit.  Dispatch passes
        #: no eligibility predicate at all while this is empty, so
        #: the scheduler's selection scans skip the per-candidate check in
        #: the common uncongested case.
        self._vssd_blocked: set = set()
        #: True while ``_dispatch`` runs its loop (see there).
        self._dispatching = False
        self.reads_received = 0
        self.writes_received = 0
        self.reads_completed = 0
        self.flushes_completed = 0
        self.software_redirects = 0
        #: Requests the device refused (bad address, out of space).
        self.requests_failed = 0
        #: Reads whose flash service overlapped a GC pass on their vSSD.
        self.gc_blocked_reads = 0
        # Route cache flushes through this server's scheduler, so
        # background writes contend with reads like any other request.
        self.write_cache.submit_fn = self._submit_flush

    # ----------------------------------------------------------- topology

    def host_vssd(self, vssd: VSsd) -> None:
        """Attach a vSSD to this server (with its idle predictor and
        device-queue limit derived from its channel span)."""
        if vssd.vssd_id in self._vssds:
            raise ConfigError(f"vSSD {vssd.vssd_id} already hosted on {self.name}")
        self._vssds[vssd.vssd_id] = vssd
        self.idle_predictors[vssd.vssd_id] = IdlePredictor()
        self._vssd_inflight[vssd.vssd_id] = 0
        if self.per_vssd_inflight is not None:
            limit = self.per_vssd_inflight
        else:
            geometry = vssd.ssd.geometry
            limit = len(
                {geometry.channel_of_chip(chip.chip_id) for chip in vssd.ftl.chips}
            )
        self._vssd_limit[vssd.vssd_id] = max(1, limit)

    @property
    def vssds(self):
        """All vSSDs hosted on this server."""
        return list(self._vssds.values())

    # --------------------------------------------------------- packet entry

    def receive_packet(self, pkt: Packet) -> None:
        """Entry point from the rack: Algorithm 2 dispatch."""
        try:
            vssd = self._vssds[pkt.vssd_id]
        except KeyError:
            raise ConfigError(
                f"vSSD {pkt.vssd_id} is not hosted on {self.name}") from None
        if pkt.op is OP_WRITE:
            self.writes_received += 1
            self._handle_write(pkt, vssd)
        elif pkt.op is OP_READ:
            self.reads_received += 1
            self._handle_read(pkt, vssd)
        else:
            raise ConfigError(
                f"server {self.name} received unexpected op {pkt.op.name}"
            )

    def _handle_write(self, pkt: Packet, vssd: VSsd) -> None:
        self.predictor.observe(pkt.vssd_id, "write", pkt.lat)
        self.idle_predictors[pkt.vssd_id].record_request(self.sim.now)
        # Line 2-4: cache the write (parking only when the cache is full);
        # the write is complete once the DRAM copy exists.
        self.write_cache.start_admit(
            vssd, pkt.lpn, partial(self._write_cached, pkt, self.sim.now)
        )

    def _write_cached(self, pkt: Packet, arrived: float) -> None:
        trace = pkt.trace
        if trace is not None:
            trace.add_span(
                "server.write_cache", arrived, self.sim.now,
                server=self.name, vssd=pkt.vssd_id,
                dirty_pages=self.write_cache.dirty_pages,
            )
        pkt.turn_around(0.1).payload["storage_us"] = self.sim.now - arrived
        if self.respond_fn is not None:
            self.respond_fn(pkt, self)

    def _handle_read(self, pkt: Packet, vssd: VSsd) -> None:
        self.predictor.observe(pkt.vssd_id, "read", pkt.lat)
        self.idle_predictors[pkt.vssd_id].record_request(self.sim.now)
        if (
            self.software_redirect_fn is not None
            and vssd.gc_active
            and self.software_redirect_fn(pkt, self)
        ):
            # RackBlox (Software): the replica server takes over; the extra
            # server-to-server hop was charged by the redirect hook.
            self.software_redirects += 1
            return
        # (kind, vssd_id, lpn, arrival_time, net_time, predict_time,
        # context) by position here and in _submit_flush: keywords to a
        # class cost a dict per call on CPython 3.11.
        request = IoRequest(
            "read", pkt.vssd_id, pkt.lpn, self.sim.now, pkt.lat,
            self.predictor.predict(pkt.vssd_id, "read"), pkt,
        )
        self.scheduler.push(request, self.sim.now)
        self._queued += 1
        self._dispatch()

    def _submit_flush(self, vssd: VSsd, lpn: int, then: Callable[[], None]) -> None:
        """Queue one cache flush as a write request; ``then()`` on completion."""
        request = IoRequest(
            "write", vssd.vssd_id, lpn, self.sim.now, 0.0,
            self.predictor.predict(vssd.vssd_id, "write"), then,
        )
        self.scheduler.push(request, self.sim.now)
        self._queued += 1
        self._dispatch()

    # ------------------------------------------------------------- dispatch

    def _dispatchable(self, request: IoRequest) -> bool:
        return request.vssd_id not in self._vssd_blocked

    def _dispatch(self) -> None:
        """Move requests from the scheduler to the device while slots are
        free.  Runs whenever a request is queued or a slot is released.

        A request reaches the device inside this call.  One the device
        refuses fails synchronously, and its ``_dispatch`` -- like that of
        a flush queued by the refusal -- returns at once: this loop is
        already running and serves the next request in policy order, so
        a run of refusals never recurses."""
        if self._dispatching or not self._queued:
            return
        self._dispatching = True
        try:
            while self._queued and self._inflight < self.max_inflight:
                eligible = self._dispatchable if self._vssd_blocked else None
                request = self.scheduler.pop(self.sim.now, eligible)
                if request is None:
                    return
                self._queued -= 1
                self._inflight += 1
                # The request takes one of its vSSD's device slots.
                vssd_id = request.vssd_id
                count = self._vssd_inflight[vssd_id] + 1
                self._vssd_inflight[vssd_id] = count
                if count >= self._vssd_limit[vssd_id]:
                    self._vssd_blocked.add(vssd_id)
                self._service(request)
        finally:
            self._dispatching = False

    def _service(self, request: IoRequest) -> None:
        vssd = self._vssds[request.vssd_id]
        trace = None
        context = request.context
        if isinstance(context, Packet):
            trace = context.trace
            if trace is not None:
                trace.add_span(
                    "server.queue", request.arrival_time, self.sim.now,
                    server=self.name, vssd=request.vssd_id,
                    queue_depth=len(self.scheduler),
                )
        done = partial(
            self._service_done, request, vssd, trace, self.sim.now, vssd.gc_active
        )
        fail = partial(self._service_failed, request)
        if request.kind == "read":
            vssd.start_read(request.lpn, done, fail)
        else:
            vssd.start_write(request.lpn, done, fail)

    def _service_failed(self, request: IoRequest, _exc: Exception) -> None:
        """The device refused the request (bad address, out of space): it
        fails alone.  The slot is freed and refilled as on completion; a
        read is dropped unanswered (its client times out), a flush hands
        its cache slot back."""
        self._inflight -= 1
        self._vssd_inflight[request.vssd_id] -= 1
        self._vssd_blocked.discard(request.vssd_id)
        self._dispatch()
        self.requests_failed += 1
        if request.kind != "read":
            request.context()

    def _service_done(self, request: IoRequest, vssd: VSsd, trace,
                      service_start: float, gc_seen: bool) -> None:
        # Free the slot and refill it before completing this request, so a
        # queued request reaches the device before our response leaves.
        self._inflight -= 1
        self._vssd_inflight[request.vssd_id] -= 1
        self._vssd_blocked.discard(request.vssd_id)
        self._dispatch()
        gc_seen = gc_seen or vssd.gc_active
        if request.kind == "read" and gc_seen:
            self.gc_blocked_reads += 1
        if trace is not None:
            trace.add_span(
                "storage.media", service_start, self.sim.now,
                server=self.name, vssd=request.vssd_id, gc=gc_seen,
            )
        latency = self.sim.now - request.arrival_time
        self.scheduler.record_completion(request.kind, latency, request)
        if request.kind == "read":
            self.reads_completed += 1
            pkt = request.context
            if isinstance(pkt, Packet):
                pkt.turn_around(4.0).payload["storage_us"] = latency
                if self.respond_fn is not None:
                    self.respond_fn(pkt, self)
        else:
            self.flushes_completed += 1
            request.context()

    def queue_depth(self) -> int:
        """Requests waiting in the I/O scheduler (excludes in-flight)."""
        return len(self.scheduler)
