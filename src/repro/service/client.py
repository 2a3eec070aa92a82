"""Async client for the rack service.

One :class:`ServiceClient` owns one TCP connection and multiplexes any
number of concurrent requests over it: every request carries a
client-assigned ``id``, a background reader task matches responses back
to their futures, so ``await client.get(...)`` from many tasks at once
just works (and is exactly how the closed-loop load generator drives a
connection at depth > 1).

Behaviour is configured with one :class:`ClientConfig` object
(``ServiceClient(host, port, name, config=ClientConfig(...))``).
Retry is opt-in and off by default (``max_retries=0`` keeps the
historical fail-fast behaviour): ``max_retries`` re-attempts on the
retryable outcomes -- ``BUSY``/``TIMEOUT`` answers, connection loss
(with an automatic reconnect), and client-side ``request_timeout_s``
expiry.  Backoff is exponential from ``retry_backoff_s``.

Counters (``retries``, ``reconnects``, ``timeouts``, ``bytes_sent``,
``bytes_received``, ``ring_refreshes``) accumulate in :attr:`counters`
and are merged into :meth:`stats` responses under ``"client"``.

Protocol selection (``wire_protocol``): ``"json"`` (default) speaks v1
length-prefixed JSON only -- byte-identical to older clients.
``"auto"`` performs the ``hello`` exchange on connect and switches the
hot ops to the binary codec iff the server advertises the ``"bin"``
capability.  ``"bin"`` does the same but raises if the server lacks the
capability.  Either way the first bytes on the wire are a JSON
``hello`` -- binary frames only ever follow a successful negotiation.
"""

import asyncio
import dataclasses
import itertools
from typing import Any, Dict, Optional

from repro.service import protocol


@dataclasses.dataclass(frozen=True)
class ClientConfig:
    """Connection behaviour for :class:`ServiceClient`, as one object.

    All fields default to the historical fail-fast behaviour.

    ``tenant`` names the QoS tenant this connection serves (declared in
    the server's tenant spec); it is announced in the ``hello`` exchange
    and every request on the connection is scheduled and metered under
    that tenant.  ``None`` rides the implicit ``default`` tenant.
    """

    max_retries: int = 0
    retry_backoff_s: float = 0.02
    retry_backoff_max_s: float = 0.5
    request_timeout_s: Optional[float] = None
    wire_protocol: str = "json"
    track_epoch: bool = False
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.wire_protocol not in ("json", "auto", "bin"):
            raise ValueError(
                f"wire_protocol must be 'json', 'auto', or 'bin', "
                f"got {self.wire_protocol!r}"
            )
        if self.tenant is not None and (
                not isinstance(self.tenant, str) or not self.tenant):
            raise ValueError(
                f"tenant must be a non-empty string, got {self.tenant!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


class ServiceError(Exception):
    """A request the server answered with ``ok: false``."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.message = message

    @property
    def is_busy(self) -> bool:
        """Shed by admission control -- retryable by design."""
        return self.code == protocol.BUSY


#: Server answers it is safe to re-send: shedding and sim-time deadline
#: expiry.  (BAD_REQUEST would fail identically forever.)
RETRYABLE_CODES = (protocol.BUSY, protocol.TIMEOUT)

#: Request types that ride the data plane and may pin a ring epoch
#: (``track_epoch``); control traffic (hello/ping/stats/admin) never does.
_DATA_OPS = ("read", "write", "get", "put", "del", "scan")


class ServiceClient:
    """A pipelined connection to a :class:`~repro.service.server.RackService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7337,
                 client_name: Optional[str] = None, *,
                 config: Optional[ClientConfig] = None) -> None:
        if config is None:
            config = ClientConfig()
        #: The resolved :class:`ClientConfig`; the flat attributes below
        #: mirror it for existing call sites that read them.
        self.config = config
        self.host = host
        self.port = port
        self.client_name = client_name
        self.wire_protocol = config.wire_protocol
        self._use_bin = False
        self.max_retries = config.max_retries
        self.retry_backoff_s = config.retry_backoff_s
        self.retry_backoff_max_s = config.retry_backoff_max_s
        self.request_timeout_s = config.request_timeout_s
        self.tenant = config.tenant
        self.counters: Dict[str, int] = {
            "retries": 0, "reconnects": 0, "timeouts": 0,
            "bytes_sent": 0, "bytes_received": 0,
            "ring_refreshes": 0,
        }
        #: The last ``hello`` response (version, capabilities, racks).
        self.server_info: Optional[Dict[str, Any]] = None
        #: With ``track_epoch``, data requests pin the ring epoch learned
        #: from the last ``hello``; a fleet membership cutover then
        #: answers ``WRONG_SHARD`` and the client refreshes its view and
        #: retries once (epoch-pinned requests ride the JSON wire).
        self.track_epoch = config.track_epoch
        self.ring_epoch: Optional[int] = None
        self._reader: Optional["asyncio.StreamReader"] = None
        self._writer: Optional["asyncio.StreamWriter"] = None
        self._reader_task: Optional["asyncio.Task"] = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._ids = itertools.count(1)
        self._closing = False
        # Requests issued in the same event-loop tick coalesce into one
        # socket write -- at depth > 1 this halves the syscall count.
        self._outbox = bytearray()
        self._flush_scheduled = False

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        protocol.cap_reads(self._writer.transport)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        # A tenant-bound connection must announce itself before any data
        # op, so it hellos on connect even on the plain JSON wire.
        if self.wire_protocol != "json" or self.tenant is not None:
            await self.hello()
        return self

    @property
    def negotiated_protocol(self) -> str:
        """``"bin"`` once binary framing has been negotiated, else ``"json"``."""
        return "bin" if self._use_bin else "json"

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def close(self) -> None:
        self._closing = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._fail_pending(ConnectionError("client closed"))

    async def _reconnect(self) -> None:
        """Tear down a dead transport and dial again (retry path only)."""
        self.counters["reconnects"] += 1
        if self._writer is not None:
            self._writer.close()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        self._fail_pending(ConnectionError("reconnecting"))
        self._reader = self._writer = None
        self._outbox.clear()
        self._flush_scheduled = False
        self._use_bin = False  # re-negotiated by connect() per wire_protocol
        await self.connect()

    def _flush_outbox(self) -> None:
        self._flush_scheduled = False
        if not self._outbox or self._writer is None:
            return
        if self._writer.is_closing():
            self._outbox.clear()
            return
        data = bytes(self._outbox)
        self._outbox.clear()
        try:
            self._writer.write(data)
        except (ConnectionResetError, BrokenPipeError):
            return
        self.counters["bytes_sent"] += len(data)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = protocol.FrameDecoder()
        try:
            while True:
                data = await self._reader.read(protocol.READ_BYTES)
                if not data:
                    break
                self.counters["bytes_received"] += len(data)
                for response in decoder.feed(data):
                    future = self._pending.pop(response.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except (protocol.FrameError, ConnectionResetError) as exc:
            if not self._closing:
                self._fail_pending(ConnectionError(str(exc)))
            return
        except asyncio.CancelledError:
            raise
        if not self._closing:
            self._fail_pending(ConnectionError("server closed the connection"))

    # ---------------------------------------------------------------- request

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return the raw (``ok: true``) response.

        Raises :class:`ServiceError` for ``ok: false`` answers -- check
        ``exc.is_busy`` to distinguish shedding from real failures.
        With ``max_retries > 0``, retryable failures (``BUSY``,
        ``TIMEOUT``, connection loss, client-side timeout) are retried
        with exponential backoff, reconnecting as needed.

        ``WRONG_SHARD`` (the request pinned a ring epoch a membership
        cutover invalidated) refreshes the routing view with a fresh
        ``hello`` and retries once, independent of ``max_retries`` --
        the second failure surfaces.
        """
        attempt = 0
        refreshed = False
        while True:
            try:
                return await self._attempt(payload)
            except ServiceError as exc:
                if exc.code == protocol.WRONG_SHARD and not refreshed:
                    refreshed = True
                    self.counters["ring_refreshes"] += 1
                    try:
                        await self.hello()
                    except (ServiceError, ConnectionError, OSError,
                            asyncio.TimeoutError):
                        pass  # the data op's own retry path reconnects
                    continue
                if exc.code not in RETRYABLE_CODES or attempt >= self.max_retries:
                    raise
            except (ConnectionError, asyncio.TimeoutError, OSError):
                if attempt >= self.max_retries:
                    raise
            attempt += 1
            self.counters["retries"] += 1
            backoff = min(
                self.retry_backoff_s * (2 ** (attempt - 1)),
                self.retry_backoff_max_s,
            )
            await asyncio.sleep(backoff)

    async def _attempt(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # A read loop that ended (server gone) would never answer.
        if self._writer is None or self._writer.is_closing() \
                or self._reader_task.done():
            if self._closing or (self.max_retries <= 0 and self._writer is None):
                raise ConnectionError("not connected (call connect() first)")
            await self._reconnect()
        coro = self._send_and_wait(payload)
        if self.request_timeout_s is None:
            return await coro
        try:
            return await asyncio.wait_for(coro, self.request_timeout_s)
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            raise

    async def _send_and_wait(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._writer is None:
            raise ConnectionError("not connected (call connect() first)")
        request_id = next(self._ids)
        message = dict(payload)
        message["id"] = request_id
        if self.client_name and "client" not in message:
            message["client"] = self.client_name
        if self.track_epoch and self.ring_epoch is not None and \
                "epoch" not in message and message.get("type") in _DATA_OPS:
            message["epoch"] = self.ring_epoch
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[request_id] = future
        self._outbox += protocol.encode_frame_as(message, self._use_bin)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush_outbox)
        response = await future
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "UNKNOWN"), response.get("message", "")
            )
        return response

    # ---------------------------------------------------------------- helpers

    async def hello(self) -> Dict[str, Any]:
        """The HELLO exchange: learn the server's protocol version and
        capabilities (``"sharded"`` marks a multi-rack front-end,
        ``"bin"`` offers binary framing).  The response is cached on
        :attr:`server_info`, and under ``wire_protocol="auto"``/``"bin"``
        it decides whether the hot ops switch to the binary codec."""
        request: Dict[str, Any] = {"type": "hello",
                                   "v": protocol.PROTOCOL_VERSION}
        if self.tenant is not None:
            request["tenant"] = self.tenant
        response = await self.request(request)
        self.server_info = response
        if "epoch" in response:
            self.ring_epoch = response["epoch"]
        if self.wire_protocol != "json":
            capable = "bin" in (response.get("capabilities") or [])
            if not capable and self.wire_protocol == "bin":
                raise ServiceError(
                    protocol.BAD_REQUEST,
                    "server does not offer the 'bin' capability",
                )
            self._use_bin = capable
        return response

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"type": "ping"})

    async def read(self, pair: int, lpn: int) -> Dict[str, Any]:
        """Raw vSSD read of one logical page."""
        return await self.request({"type": "read", "pair": pair, "lpn": lpn})

    async def write(self, pair: int, lpn: int) -> Dict[str, Any]:
        """Raw replicated vSSD write of one logical page."""
        return await self.request({"type": "write", "pair": pair, "lpn": lpn})

    async def get(self, key: str) -> Dict[str, Any]:
        return await self.request({"type": "get", "key": key})

    async def put(self, key: str, value: str) -> Dict[str, Any]:
        return await self.request({"type": "put", "key": key, "value": value})

    async def delete(self, key: str) -> Dict[str, Any]:
        return await self.request({"type": "del", "key": key})

    async def scan(self, start: str = "", count: int = 10) -> Dict[str, Any]:
        return await self.request(
            {"type": "scan", "start": start, "count": count}
        )

    # ------------------------------------------------------------ fleet admin

    async def fleet_status(self) -> Dict[str, Any]:
        """The fleet's membership view: epoch, racks, live migration."""
        return await self.request({"type": "admin", "op": "status"})

    async def fleet_add_rack(self, **options: Any) -> Dict[str, Any]:
        """Admit a new rack under live load; returns when the cutover
        lands (or the migration aborts).  ``options`` pass through to
        the server: ``batch_size``, ``pause_s``, ``max_attempts``, and
        for process-mode proxies the new backend's ``host``/``port``."""
        return await self.request({"type": "admin", "op": "add_rack",
                                   **options})

    async def fleet_drain_rack(self, rack: int,
                               **options: Any) -> Dict[str, Any]:
        """Drain rack ``rack`` out of the fleet under live load."""
        return await self.request({"type": "admin", "op": "drain_rack",
                                   "rack": int(rack), **options})

    async def stats(self) -> Dict[str, Any]:
        """Live collector + trace-attribution metrics from the server,
        with this client's own resilience counters under ``"client"``."""
        response = await self.request({"type": "stats"})
        response["client"] = {k: float(v) for k, v in self.counters.items()}
        return response
