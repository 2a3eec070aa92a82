"""The asyncio TCP front-end: one rack served over the wire.

Connection handling is deliberately lean: read a frame, decide
admission, dispatch to the :class:`~repro.service.bridge.SimTimeBridge`,
and write the response from the request future's done-callback -- no
per-request task, lock, or drain.  Requests on one connection are
*pipelined* (the handler never waits for a response before reading the
next frame), so a single connection can keep many simulated requests in
flight; responses come back in completion order, matched by ``id``.

Backpressure is explicit: past the global queue-depth cap (or a
client's token bucket) the server answers ``BUSY`` immediately instead
of queueing, and during shutdown it answers ``SHUTTING_DOWN`` while the
already-admitted requests drain.  The queue-depth cap also bounds the
response bytes a slow reader can accumulate, which is why the write
path can skip per-response drains.
"""

import asyncio
from typing import Any, Dict, Optional, Set

from repro.cluster.config import RackConfig
from repro.errors import ConfigError
from repro.service import frontdoor, protocol, schema
from repro.service.admission import AdmissionController
from repro.service.bridge import SimTimeBridge
from repro.service.frontdoor import CACHE_HIT_LATENCY_US  # noqa: F401 (re-export)
from repro.service.qos import QosScheduler
from repro.service.readcache import ReadCache


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
        #: read-through cache for KV ``get``\ s.
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
        self._connections: Set["asyncio.Task"] = set()
        self._draining = False
        self.connections_accepted = 0
        self.responses_sent = 0
        # Completion responses accumulate here during a sim chunk and go
        # out as one write per connection when the bridge's after_chunk
        # hook fires; size is bounded by the admission queue-depth cap.
        self._write_buffers: Dict["asyncio.StreamWriter", bytearray] = {}

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind, listen, and start the bridge pump."""
        self.bridge.after_chunk = self._flush_writes
        await self.bridge.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
            await self._server.wait_closed()
        await self.bridge.stop(drain=True, drain_timeout_s=drain_timeout_s)
        # Let queued done-callbacks buffer their final responses
        # (cancellations from a cut-short drain), then push them out
        # before closing the connections under them.  One tick is enough:
        # a fleet too answers on its shard bridges' own futures, since
        # nothing records an answer a second time (a fleet's latency is
        # the shards' histograms merged, a scatter scan or forwarded
        # write counting once per leg); the scans and forwarded writes a
        # fleet settles from a leg's callback settle during its shards'
        # stops.
        await asyncio.sleep(0)
        self._flush_writes()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # ------------------------------------------------------------ connections

    async def _handle_connection(self, reader: "asyncio.StreamReader",
                                 writer: "asyncio.StreamWriter") -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self.connections_accepted += 1
        # The simulated network path this connection's raw requests ride
        # is named by accept order, not by peer address: the name seeds
        # the path's latency stream, so a seeded run repeats whatever
        # ephemeral ports the kernel hands out, and the rack holds one
        # path per open connection whatever ``client`` strings arrive.
        path = f"conn-{self.connections_accepted}"
        peer = writer.get_extra_info("peername")
        default_client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        outstanding: Set["asyncio.Future"] = set()
        decoder = protocol.FrameDecoder(self.max_frame_bytes)
        protocol.cap_reads(writer)
        conn = frontdoor.Conn()
        try:
            while True:
                data = await reader.read(protocol.READ_BYTES)
                if not data:
                    break
                try:
                    requests = decoder.feed_tagged(data)
                except protocol.FrameError as exc:
                    self._send_batched(writer, protocol.error_response(
                        protocol.BAD_REQUEST, str(exc)
                    ))
                    self._flush_writes()
                    break  # framing is lost; drop the connection
                for request, binary in requests:
                    self._begin_request(request, default_client, path,
                                        writer, outstanding, binary, conn)
                # Push out whatever the batch produced synchronously
                # (rejections, pings); completions flush per sim chunk.
                self._flush_writes()
            if outstanding:
                # EOF with requests still in the simulator: finish them
                # (their callbacks write into the closing socket, which
                # is harmless if the peer is truly gone).
                await asyncio.wait(outstanding)
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # A handler cancelled mid-drain re-raises CancelledError at
                # its next await; the connection is closing either way.
                pass
            if task is not None:
                self._connections.discard(task)
            self._release_path(path, outstanding)

    def _release_path(self, path: str,
                      outstanding: Set["asyncio.Future"]) -> None:
        """Forget a closed connection's simulated path -- once nothing of
        the connection is left in the simulator (a reset can leave
        requests there, and their replies still ride the path)."""
        if not outstanding:
            self.bridge.forget_client(path)
            return

        def _one_less(fut: "asyncio.Future") -> None:
            outstanding.discard(fut)
            self._release_path(path, outstanding)

        next(iter(outstanding)).add_done_callback(_one_less)

    def _send_batched(self, writer: "asyncio.StreamWriter",
                      response: Dict[str, Any],
                      binary: bool = False) -> None:
        """Buffer a response for the next flush (end of the read batch
        for immediate answers, end of the sim chunk for completions).

        ``binary`` answers in the protocol-v2 codec (with automatic JSON
        fallback for shapes it cannot express) -- set iff the request
        arrived in binary, which is what keeps v1 clients on pure JSON.
        """
        if writer.is_closing():
            return
        buffer = self._write_buffers.get(writer)
        if buffer is None:
            buffer = self._write_buffers[writer] = bytearray()
        buffer += protocol.encode_frame_as(response, binary)
        self.responses_sent += 1

    def _flush_writes(self) -> None:
        """One socket write per connection with pending responses."""
        if not self._write_buffers:
            return
        buffers, self._write_buffers = self._write_buffers, {}
        for writer, buffer in buffers.items():
            if writer.is_closing():
                continue
            try:
                writer.write(bytes(buffer))
            except (ConnectionResetError, BrokenPipeError):
                continue

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
                client: str) -> "asyncio.Future":
        """Dispatch an admitted request into the simulator; ``client``
        is the simulated path it rides.

        Raises ``KeyError``/``TypeError``/``ValueError``/``ConfigError``
        for malformed operands or unknown types; the caller maps all of
        them to ``BAD_REQUEST``.
        """
        bridge = self.bridge
        if rtype == "read":
            return bridge.submit_read(
                int(request["pair"]), int(request["lpn"]), client,
                replica=bool(request.get("replica", False)),
            )
        if rtype == "write":
            return bridge.submit_write(
                int(request["pair"]), int(request["lpn"]), client
            )
        if rtype == "get":
            return bridge.submit_get(request["key"], client)
        if rtype == "put":
            return bridge.submit_put(request["key"], request["value"], client)
        if rtype == "del":
            return bridge.submit_delete(request["key"], client)
        if rtype == "scan":
            return bridge.submit_scan(
                request.get("start", ""), int(request.get("count", 10)),
                client,
            )
        raise ConfigError(f"unknown request type {rtype!r}")

    def _stats_payload(self) -> Dict[str, Any]:
        """The full body of a ``stats`` response."""
        return schema.assemble_server_stats(
            self.bridge.stats_payload(), self.admission.stats(),
            self.connections_accepted, **self.door.stats_sections(),
        )

    # ----------------------------------------------------------------- admin

    def _begin_admin(self, request: Dict[str, Any],
                     writer: "asyncio.StreamWriter",
                     outstanding: Set["asyncio.Future"],
                     binary: bool = False) -> None:
        """In-band fleet administration on the v1 JSON wire.

        ``status`` answers immediately; mutations (``add_rack`` /
        ``drain_rack``) run as a task -- migration takes real time under
        live load -- and respond when the cutover (or the abort) lands.
        """
        pending = frontdoor.begin_admin(request, self._fleet_status,
                                        self._admin_mutation)
        if pending.__class__ is dict:
            self._send_batched(writer, pending, binary)
            return
        request_id = request.get("id")
        task = asyncio.ensure_future(pending)
        outstanding.add(task)

        def _respond(fut: "asyncio.Future") -> None:
            outstanding.discard(fut)
            # No sim chunk is owed to this connection: flush now.
            self._send_batched(
                writer, frontdoor.admin_outcome(fut, request_id), binary)
            self._flush_writes()

        task.add_done_callback(_respond)

    # --------------------------------------------------------------- dispatch

    def _begin_request(self, request: Dict[str, Any], default_client: str,
                       path: str, writer: "asyncio.StreamWriter",
                       outstanding: Set["asyncio.Future"],
                       binary: bool, conn: frontdoor.Conn) -> None:
        """Admit and dispatch one request; responses are written either
        immediately (rejections, ping/stats) or from the sim future's
        done-callback when the simulated request completes.  The
        request's ``client`` (default: the peer address) keys admission;
        ``path`` names the connection's simulated network path.
        ``binary`` tags how the request arrived; every response to it
        answers in the same codec.  ``conn`` carries per-connection state
        (the hello-declared tenant)."""
        ticket = self.door.admit(request, conn, self._draining)
        if ticket.__class__ is dict:
            self._send_batched(writer, ticket, binary)
            return
        request_id = request.get("id")
        if ticket is frontdoor.STATS:
            self._send_batched(writer, protocol.ok_response(
                request_id, **self._stats_payload()
            ), binary)
            return
        if ticket is frontdoor.ADMIN:
            self._begin_admin(request, writer, outstanding, binary)
            return
        client = str(request.get("client") or default_client)
        if not self._admit(client, request):
            self._send_batched(writer, protocol.error_response(
                protocol.BUSY, "admission control shed this request",
                request_id,
            ), binary)
            return
        try:
            future = self._submit(request.get("type"), request, path)
        except frontdoor.BAD_OPERANDS as exc:
            self._send_batched(
                writer, frontdoor.bad_request(exc, request_id), binary)
            return
        outstanding.add(future)
        ticket.submitted()

        def _respond(fut: "asyncio.Future") -> None:
            outstanding.discard(fut)
            if fut.cancelled():
                ticket.complete(None)
                self._send_batched(writer, protocol.error_response(
                    protocol.SHUTTING_DOWN, "request cancelled at shutdown",
                    request_id,
                ), binary)
                return
            exc = fut.exception()
            if exc is None:
                result = fut.result()
                ticket.complete(result)
                self._send_batched(
                    writer, protocol.ok_response(request_id, **result),
                    binary,
                )
                return
            ticket.complete(None)
            if isinstance(exc, asyncio.TimeoutError):
                response = protocol.error_response(
                    protocol.TIMEOUT, str(exc), request_id)
            elif isinstance(exc, frontdoor.BAD_OPERANDS):
                response = frontdoor.bad_request(exc, request_id)
            else:
                response = protocol.error_response(
                    protocol.INTERNAL, f"{type(exc).__name__}: {exc}",
                    request_id,
                )
            self._send_batched(writer, response, binary)

        future.add_done_callback(_respond)
