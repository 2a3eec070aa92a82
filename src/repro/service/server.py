"""The asyncio TCP front-end: one rack served over the wire.

Each connection is an :class:`asyncio.Protocol`, served from the event
loop's read callback with no task of its own: ``data_received`` decodes
the frames, runs each through the front door and admission, submits it
to the :class:`~repro.service.bridge.SimTimeBridge` with a ``then`` that
buffers the answer, and writes whatever the batch answered at once
(rejections, pings, cache hits).  The bridge's pump turn, queued behind
every connection read in the same loop pass, completes the requests
inside the turn; its ``after_chunk`` hook then writes every buffered
answer, one socket write per connection per turn.  No per-request task,
future, lock or drain.  Requests on one connection are *pipelined*
(nothing waits for a response before reading the next frame), so a
single connection can keep many simulated requests in flight; responses
come back in completion order, matched by ``id``.

Backpressure is explicit: past the global queue-depth cap (or a
client's token bucket) the server answers ``BUSY`` immediately instead
of queueing, and during shutdown it answers ``SHUTTING_DOWN`` while the
already-admitted requests drain.  Answers that skip admission (pings,
``BUSY``/``BAD_REQUEST``, cache hits) are bounded by the transport
instead: once a connection's unsent bytes pass the transport's
high-water mark the server stops reading that connection
(``pause_writing``) until its reader catches up (``resume_writing``), so
a client that pipelines without reading stalls itself, not the server.
"""

import asyncio
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.cluster.config import RackConfig
from repro.errors import ConfigError
from repro.service import frontdoor, protocol, schema
from repro.service.admission import AdmissionController
from repro.service.bridge import SimTimeBridge
from repro.service.frontdoor import CACHE_HIT_LATENCY_US  # noqa: F401 (re-export)
from repro.service.qos import QosScheduler
from repro.service.readcache import ReadCache


class _Connection(frontdoor.Conn, asyncio.Protocol):
    """One client connection of a :class:`RackService`: the front door's
    state plus the socket's -- its transport, frame decoder and the
    answers buffered for the next flush."""

    __slots__ = ("service", "transport", "decoder", "pending", "outstanding",
                 "finished", "lost", "path", "client")

    def __init__(self, service: "RackService") -> None:
        super().__init__()
        self.service = service
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = protocol.FrameDecoder(service.max_frame_bytes)
        #: Encoded answers not yet written (see ``RackService._flush_writes``).
        self.pending = bytearray()
        #: Requests (and admin mutations) not yet answered.
        self.outstanding = 0
        #: No more requests will be read: EOF, or the framing was lost.
        self.finished = False
        self.lost = False
        self.path = self.client = ""

    # ------------------------------------------------------- asyncio.Protocol

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        service = self.service
        service.connections_accepted += 1
        service._connections.add(self)
        # The simulated network path this connection's raw requests ride
        # is named by accept order, not by peer address: the name seeds
        # the path's latency stream, so a seeded run repeats whatever
        # ephemeral ports the kernel hands out, and the rack holds one
        # path per open connection whatever ``client`` strings arrive.
        self.path = f"conn-{service.connections_accepted}"
        peer = transport.get_extra_info("peername")
        self.client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        protocol.cap_reads(transport)

    def data_received(self, data: bytes) -> None:
        if self.finished:
            return
        service = self.service
        try:
            requests = self.decoder.feed_tagged(data)
        except protocol.FrameError as exc:
            service._send(self, protocol.error_response(
                protocol.BAD_REQUEST, str(exc)
            ))
            self.finish()  # framing is lost; drop the connection
        else:
            for request, binary in requests:
                service._begin_request(request, self, binary)
        # Push out whatever the batch answered synchronously (rejections,
        # pings); completions flush after the pump turn.
        service._flush_writes()

    def eof_received(self) -> bool:
        # Half-closed: requests still in the simulator are answered
        # first, and the flush that writes the last of them closes.
        self.finish()
        self.service._flush_writes()
        return True

    def pause_writing(self) -> None:
        # The peer is not reading its answers: read no more requests
        # from it until it has.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = True
        self.service._connections.discard(self)
        self.service._connection_closed()
        if not self.outstanding:
            self.service.bridge.forget_client(self.path)

    # --------------------------------------------------------------- service

    def finish(self) -> None:
        """Read no more; close once every answer owed is written."""
        if not self.finished:
            self.finished = True
            self.service._dirty.append(self)

    def answered(self) -> None:
        """One owed answer is settled (and buffered, so the next flush
        closes a finished connection, unless it is lost)."""
        self.outstanding -= 1
        if self.lost and not self.outstanding:
            # Forget the closed connection's simulated path once nothing
            # of it is left in the simulator (a reset can leave requests
            # there, and their replies still ride the path).
            self.service.bridge.forget_client(self.path)

    def flush(self) -> None:
        """Write the buffered answers; close a finished, settled one."""
        transport = self.transport
        if transport.is_closing():
            self.pending.clear()
            return
        if self.pending:
            transport.write(bytes(self.pending))
            self.pending.clear()
        if self.finished and not self.outstanding:
            transport.close()


class RackService:
    """One rack behind a TCP listener."""

    def __init__(
        self,
        config: RackConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        bridge: Optional[SimTimeBridge] = None,
        admission: Optional[AdmissionController] = None,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        pace: float = 0.0,
        chunk_us: float = 1000.0,
        request_timeout_us: Optional[float] = None,
        qos: Optional[QosScheduler] = None,
        read_cache: Optional[ReadCache] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Everything between a decoded frame and dispatch, and the
        #: completion accounting after it (see :mod:`.frontdoor`): the
        #: optional multi-tenant QoS scheduler (connections may declare a
        #: tenant in ``hello``; every data op passes weighted-fair tenant
        #: admission before per-client admission) and the optional DRAM
        #: read-through cache for KV ``get``\\ s.
        self.door = frontdoor.FrontDoor(
            qos, read_cache, epoch=self._current_epoch,
            describe=lambda: (self._capabilities(), self._hello_fields()),
        )
        if bridge is None:
            bridge_kwargs: Dict[str, Any] = dict(pace=pace, chunk_us=chunk_us)
            if request_timeout_us is not None:
                bridge_kwargs["request_timeout_us"] = request_timeout_us
            bridge = SimTimeBridge(config, **bridge_kwargs)
        self.bridge = bridge
        self.admission = admission if admission is not None else (
            AdmissionController()
        )
        self.max_frame_bytes = max_frame_bytes
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connections: Set[_Connection] = set()
        #: Resolved when the last connection is gone (a stopping service).
        self._all_closed: Optional["asyncio.Future"] = None
        self._draining = False
        self.connections_accepted = 0
        # Connections with answers buffered (or a close owed) since the
        # last flush: one write per connection per read batch or pump
        # turn; bounded by the queue-depth cap plus one read's worth.
        self._dirty: List[_Connection] = []

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind, listen, and start the bridge pump."""
        self.bridge.after_chunk = self._flush_writes
        await self.bridge.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close.

        New requests arriving on live connections during the drain get
        ``SHUTTING_DOWN``; admitted ones complete normally.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self.bridge.stop(drain=True, drain_timeout_s=drain_timeout_s)
        # Let queued done-callbacks buffer their final responses (a
        # fleet's answers ride its shard bridges' futures), then push
        # them out before closing the connections under them.  One tick
        # is enough: nothing records an answer a second time (a fleet's
        # latency is the shards' histograms merged, a scatter scan or
        # forwarded write counting once per leg); the scans and
        # forwarded writes a fleet settles from a leg's callback settle
        # during its shards' stops.
        await asyncio.sleep(0)
        self._flush_writes()
        if self._connections:
            self._all_closed = asyncio.get_running_loop().create_future()
            for conn in list(self._connections):
                conn.transport.close()
            # A peer that never reads keeps its transport open with
            # bytes unsent; past the drain budget it is cut off.
            await asyncio.wait((self._all_closed,), timeout=drain_timeout_s)
            for conn in list(self._connections):
                conn.transport.abort()
            self._all_closed = None
        if self._server is not None:
            await self._server.wait_closed()

    def _connection_closed(self) -> None:
        """A connection is gone; the last one releases a stopping
        service."""
        closed = self._all_closed
        if closed is not None and not self._connections and not closed.done():
            closed.set_result(None)

    # ------------------------------------------------------------ connections

    def _send(self, conn: _Connection, response: Dict[str, Any],
              binary: bool = False) -> None:
        """Buffer a response for the next flush (end of the read batch
        for immediate answers, end of the pump turn for completions).

        ``binary`` answers in the protocol-v2 codec (with automatic JSON
        fallback for shapes it cannot express) -- set iff the request
        arrived in binary, which is what keeps v1 clients on pure JSON.
        """
        if conn.lost:
            return
        if not conn.pending:
            self._dirty.append(conn)
        conn.pending += protocol.encode_frame_as(response, binary)

    def _flush_writes(self) -> None:
        """One socket write per connection with pending responses."""
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, []
        for conn in dirty:
            conn.flush()

    # ------------------------------------------------------- subclass hooks

    def _capabilities(self) -> list:
        """What this server advertises in the ``hello`` exchange."""
        return ["raw", "kv", "bin"]

    def _hello_fields(self) -> Dict[str, Any]:
        """Extra fields for the ``hello`` response."""
        return {"racks": 1, "epoch": self._current_epoch()}

    def _current_epoch(self) -> int:
        """The fleet's ring epoch.  A single fixed rack never rebalances,
        so the base service sits at epoch 0 forever; the sharded flavours
        report their :class:`~repro.service.membership.FleetController`'s
        epoch, which bumps at every membership cutover."""
        return 0

    def _fleet_status(self) -> Dict[str, Any]:
        """Body of an ``admin``/``status`` response."""
        return {"epoch": self._current_epoch(), "racks": [0],
                "migrating": False, "phase": "static"}

    def _admin_mutation(self, op: str, request: Dict[str, Any],
                        knobs: Dict[str, Any]) -> Optional[Any]:
        """Start a membership mutation (``knobs`` are the parsed
        migration knobs); returns an awaitable or ``None`` for
        unknown/unsupported ops.  A fixed single rack supports none."""
        return None

    def _admit(self, client: str, request: Dict[str, Any]) -> bool:
        """One admission decision (sharded flavours route first)."""
        return self.admission.try_admit(client, self.bridge.inflight)

    def _submit(self, rtype: Optional[str], request: Dict[str, Any],
                client: str, then: Any) -> None:
        """Dispatch an admitted request into the simulator; ``client``
        is the simulated path it rides, ``then(payload, exc)`` takes its
        answer (see :data:`repro.service.bridge.Then`).

        Raises ``KeyError``/``TypeError``/``ValueError``/``ConfigError``
        for malformed operands or unknown types; the caller maps all of
        them to ``BAD_REQUEST``.
        """
        bridge = self.bridge
        if rtype == "read":
            bridge.submit_read(
                int(request["pair"]), int(request["lpn"]), client,
                replica=bool(request.get("replica", False)), then=then,
            )
        elif rtype == "write":
            bridge.submit_write(
                int(request["pair"]), int(request["lpn"]), client, then=then
            )
        elif rtype == "get":
            bridge.submit_get(request["key"], client, then=then)
        elif rtype == "put":
            bridge.submit_put(request["key"], request["value"], client,
                              then=then)
        elif rtype == "del":
            bridge.submit_delete(request["key"], client, then=then)
        elif rtype == "scan":
            bridge.submit_scan(
                request.get("start", ""), int(request.get("count", 10)),
                client, then=then,
            )
        else:
            raise ConfigError(f"unknown request type {rtype!r}")

    def _stats_payload(self) -> Dict[str, Any]:
        """The full body of a ``stats`` response."""
        return schema.assemble_server_stats(
            self.bridge.stats_payload(), self.admission.stats(),
            self.connections_accepted, **self.door.stats_sections(),
        )

    # ----------------------------------------------------------------- admin

    def _begin_admin(self, request: Dict[str, Any], conn: _Connection,
                     binary: bool = False) -> None:
        """In-band fleet administration on the v1 JSON wire.

        ``status`` answers immediately; mutations (``add_rack`` /
        ``drain_rack``) run as a task -- migration takes real time under
        live load -- and respond when the cutover (or the abort) lands.
        """
        pending = frontdoor.begin_admin(request, self._fleet_status,
                                        self._admin_mutation)
        if pending.__class__ is dict:
            self._send(conn, pending, binary)
            return
        request_id = request.get("id")
        conn.outstanding += 1

        def _respond(fut: "asyncio.Future") -> None:
            # No pump turn is owed to this connection: flush now.
            self._send(conn, frontdoor.admin_outcome(fut, request_id), binary)
            conn.answered()
            self._flush_writes()

        asyncio.ensure_future(pending).add_done_callback(_respond)

    # --------------------------------------------------------------- dispatch

    def _begin_request(self, request: Dict[str, Any], conn: _Connection,
                       binary: bool) -> None:
        """Admit and dispatch one request; its answer is buffered either
        at once (rejections, ping/stats) or by :meth:`_respond` when the
        simulated request completes.  The request's ``client`` (default:
        the peer address) keys admission; the connection's ``path`` names
        its simulated network path.  ``binary`` tags how the request
        arrived; every response to it answers in the same codec."""
        ticket = self.door.admit(request, conn, self._draining)
        if ticket.__class__ is dict:
            self._send(conn, ticket, binary)
            return
        request_id = request.get("id")
        if ticket is frontdoor.STATS:
            self._send(conn, protocol.ok_response(
                request_id, **self._stats_payload()
            ), binary)
            return
        if ticket is frontdoor.ADMIN:
            self._begin_admin(request, conn, binary)
            return
        client = str(request.get("client") or conn.client)
        if not self._admit(client, request):
            self._send(conn, protocol.error_response(
                protocol.BUSY, "admission control shed this request",
                request_id,
            ), binary)
            return
        try:
            self._submit(request.get("type"), request, conn.path,
                         partial(self._respond, conn, ticket, request_id,
                                 binary))
        except frontdoor.BAD_OPERANDS as exc:
            self._send(conn, frontdoor.bad_request(exc, request_id), binary)
            return
        conn.outstanding += 1
        ticket.submitted()

    def _respond(self, conn: _Connection, ticket: frontdoor.Ticket,
                 request_id: Any, binary: bool,
                 result: Optional[Dict[str, Any]],
                 exc: Optional[BaseException]) -> None:
        """A submitted request's ``then``: settle its ticket and buffer
        its answer for the flush after the pump turn."""
        ticket.complete(result if exc is None else None)
        if exc is None:
            response = protocol.ok_response(request_id, **result)
        elif isinstance(exc, asyncio.CancelledError):
            response = protocol.error_response(
                protocol.SHUTTING_DOWN, "request cancelled at shutdown",
                request_id,
            )
        elif isinstance(exc, asyncio.TimeoutError):
            response = protocol.error_response(
                protocol.TIMEOUT, str(exc), request_id)
        elif isinstance(exc, frontdoor.BAD_OPERANDS):
            response = frontdoor.bad_request(exc, request_id)
        else:
            response = protocol.error_response(
                protocol.INTERNAL, f"{type(exc).__name__}: {exc}",
                request_id,
            )
        self._send(conn, response, binary)
        conn.answered()
