"""The front door: what happens to a request before it is dispatched
and after it is answered, written once for every deployment shape.

:meth:`FrontDoor.admit` runs the fixed order -- version check, ``hello``
(tenant bind), ``ping``/``stats``/``admin``, epoch fence, drain, tenant
QoS gate, read-cache probe -- and hands back a reply dict or a
:class:`Ticket`; the ticket settles QoS accounting and the cache's
invalidate-or-fill once the request has been dispatched and answered.
The ``admin`` request parser and its exception -> wire-code mapping
live here too.

Nothing here touches a socket or an event loop.
:class:`~repro.service.server.RackService` (hence
:class:`~repro.service.router.ShardedRackService`) and both
:class:`~repro.service.router.ShardProxy` entry points call it and keep
only what really differs: how a reply is written, how ``stats`` and
``admin`` bodies are produced, how an admitted request is dispatched.
"""

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.service import protocol
from repro.service.membership import MembershipBusy, MembershipError
from repro.service.qos import DEFAULT_TENANT, QosScheduler
from repro.service.readcache import ReadCache

#: Request types that consume simulated rack capacity and therefore
#: pass through tenant QoS admission (everything else -- hello, ping,
#: stats, admin -- is control plane).
DATA_TYPES = frozenset(("read", "write", "get", "put", "del", "scan"))

#: Simulated latency reported for a DRAM cache hit: the request never
#: touches the rack simulator, so the charge is a nominal DRAM fetch.
CACHE_HIT_LATENCY_US = 1.0

#: :meth:`FrontDoor.admit` verdicts for the two control requests whose
#: bodies only the deployment shape can produce.
STATS = "stats"
ADMIN = "admin"

#: What a malformed operand raises; always answered ``BAD_REQUEST``.
BAD_OPERANDS = (KeyError, TypeError, ValueError, ConfigError)

#: ``admin`` migration knobs and the type each is coerced to.
_ADMIN_KNOBS = (("batch_size", int), ("pause_s", float),
                ("max_attempts", int))


class Conn:
    """Per-connection state.  The tenant is declared once in ``hello``
    (the binary codec has no per-request field for it) and sticks for
    the connection's lifetime."""

    __slots__ = ("tenant",)

    def __init__(self) -> None:
        self.tenant = DEFAULT_TENANT


class Ticket:
    """One admitted request's completion-time obligations."""

    __slots__ = ("qos", "cache", "rtype", "tenant", "key", "fill_token")

    def __init__(self, qos: Optional[QosScheduler],
                 cache: Optional[ReadCache], rtype: Any, tenant: str,
                 key: Optional[str], fill_token: Any) -> None:
        self.qos = qos
        self.cache = cache
        self.rtype = rtype
        self.tenant = tenant
        self.key = key
        self.fill_token = fill_token

    def submitted(self) -> None:
        """The request was dispatched; it now counts as in flight."""
        if self.qos is not None:
            self.qos.on_submit(self.tenant)

    def complete(self, result: Optional[Dict[str, Any]],
                 latency_us: Optional[float] = None) -> None:
        """The submitted request was answered.

        ``result`` is the success payload, or ``None`` for every other
        outcome (error answer, timeout, cancellation, lost backend).
        ``latency_us`` overrides the payload's own ``latency_us`` for
        shapes that measure at the relay.
        """
        if self.qos is not None:
            if latency_us is None and result is not None:
                latency_us = result.get("latency_us")
            self.qos.on_complete(
                self.tenant,
                (latency_us / 1000.0
                 if isinstance(latency_us, (int, float)) else None),
                ok=result is not None,
            )
        cache = self.cache
        if cache is None or self.key is None:
            return
        if self.rtype in ("put", "del"):
            # On every outcome, not only success: a write that timed
            # out or errored may still be applied by the store later,
            # and purging a key needlessly only costs one miss.
            cache.invalidate(self.key)
        elif (self.fill_token is not None and result is not None
                and result.get("found")):
            cache.fill(self.key, result.get("value"), self.tenant,
                       self.fill_token)


class FrontDoor:
    """The fixed admission pipeline in front of one service.

    ``epoch`` returns the fleet's current ring epoch; ``describe``
    returns ``(capabilities, hello fields)`` for the ``hello`` answer.
    Both are the shape's, called only by the requests that need them.
    """

    def __init__(self, qos: Optional[QosScheduler],
                 read_cache: Optional[ReadCache], *,
                 epoch: Callable[[], int],
                 describe: Callable[[], Tuple[List[str], Dict[str, Any]]],
                 ) -> None:
        self.qos = qos
        self.read_cache = read_cache
        self._epoch = epoch
        self._describe = describe

    @property
    def tracks_completions(self) -> bool:
        """Whether a ticket's :meth:`~Ticket.complete` does anything --
        a relay that would have to decode a response just to call it
        can skip both when this is false."""
        return self.qos is not None or self.read_cache is not None

    def stats_sections(self) -> Dict[str, Any]:
        """The door's own ``stats`` sections, as the ``tenants`` and
        ``readcache`` keywords of the schema's assemblers (``None`` when
        off)."""
        return {
            "tenants": self.qos.stats_section() if self.qos is not None else None,
            "readcache": (self.read_cache.stats_section()
                          if self.read_cache is not None else None),
        }

    def admit(self, request: Dict[str, Any], conn: Conn, draining: bool,
              ) -> Union[Dict[str, Any], str, Ticket]:
        """Walk one request through the door.

        Returns a reply dict (answer it and stop), :data:`STATS` or
        :data:`ADMIN` (the shape answers), or a :class:`Ticket` (the
        request is admitted: dispatch it).
        """
        request_id = request.get("id")
        bad_version = protocol.check_version(request)
        if bad_version is not None:
            return protocol.error_response(
                protocol.UNSUPPORTED_VERSION,
                f"server speaks v{protocol.PROTOCOL_VERSION}, "
                f"got v{bad_version!r}", request_id,
            )
        rtype = request.get("type")
        # Cheap, non-simulated request types bypass admission entirely.
        if rtype == "hello":
            return self._hello(request, conn, request_id)
        if rtype == "ping":
            return protocol.ok_response(request_id, pong=True)
        if rtype == "stats":
            return STATS
        if rtype == "admin":
            return ADMIN
        pinned = request.get("epoch")
        if pinned is not None and pinned != self._epoch():
            # The client pinned a routing view that a membership cutover
            # has since invalidated; it must re-``hello`` and retry.
            return protocol.error_response(
                protocol.WRONG_SHARD,
                f"request pinned ring epoch {pinned!r}, fleet is at "
                f"epoch {self._epoch()}", request_id,
            )
        if draining:
            return protocol.error_response(
                protocol.SHUTTING_DOWN, "server is draining", request_id
            )
        tenant = conn.tenant
        qos = self.qos if rtype in DATA_TYPES else None
        if qos is not None and not qos.try_admit(tenant):
            return protocol.error_response(
                protocol.BUSY,
                f"tenant {tenant!r} is over its QoS budget", request_id,
            )
        cache = self.read_cache
        key = request.get("key")
        if not isinstance(key, str):
            key = None
        fill_token = None
        if cache is not None and rtype == "get" and key is not None:
            hit, value, fill_token = cache.lookup(key, tenant)
            if hit:
                # Served straight from front-end DRAM: no admission, no
                # simulated work, and the hit still counts toward the
                # tenant's SLO window (a near-zero-latency success).
                if qos is not None:
                    qos.on_submit(tenant)
                    qos.on_complete(tenant, CACHE_HIT_LATENCY_US / 1000.0)
                return protocol.ok_response(
                    request_id, value=value, found=True,
                    latency_us=CACHE_HIT_LATENCY_US,
                )
        return Ticket(qos, cache, rtype, tenant, key, fill_token)

    def _hello(self, request: Dict[str, Any], conn: Conn,
               request_id: Any) -> Dict[str, Any]:
        declared = request.get("tenant")
        if declared is not None:
            if not isinstance(declared, str) or not declared:
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"tenant must be a non-empty string, "
                    f"got {declared!r}", request_id,
                )
            if self.qos is not None and not self.qos.knows(declared):
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"unknown tenant {declared!r}; declared tenants: "
                    f"{self.qos.tenant_names}", request_id,
                )
            conn.tenant = declared
        capabilities, fields = self._describe()
        if self.qos is not None:
            capabilities = capabilities + ["qos"]
        if declared is not None:
            fields = dict(fields, tenant=declared)
        return protocol.hello_response(
            request_id, capabilities=capabilities, **fields,
        )


# ------------------------------------------------------------------- admin


def bad_request(exc: BaseException, request_id: Any) -> Dict[str, Any]:
    """The ``BAD_REQUEST`` answer to one of :data:`BAD_OPERANDS`."""
    return protocol.error_response(
        protocol.BAD_REQUEST, f"{type(exc).__name__}: {exc}", request_id,
    )


def begin_admin(request: Dict[str, Any],
                status: Callable[[], Dict[str, Any]],
                mutate: Callable[[str, Dict[str, Any], Dict[str, Any]], Any],
                ) -> Any:
    """Parse one in-band ``admin`` request.

    ``status``/``fleet_status`` answer immediately from ``status()``.
    Anything else goes to ``mutate(op, request, knobs)``, which returns
    an awaitable for a membership change it started, or ``None`` for an
    op this deployment does not support.  Returns a reply dict, or that
    awaitable -- the shape runs it and answers with
    :func:`admin_outcome` when it lands.
    """
    request_id = request.get("id")
    op = request.get("op")
    if op in ("status", "fleet_status"):
        return protocol.ok_response(request_id, **status())
    try:
        knobs = {name: cast(request[name])
                 for name, cast in _ADMIN_KNOBS if name in request}
        pending = mutate(str(op), request, knobs)
    except BAD_OPERANDS as exc:
        return bad_request(exc, request_id)
    if pending is None:
        return protocol.error_response(
            protocol.BAD_REQUEST,
            f"unsupported admin op {op!r} for this deployment", request_id,
        )
    return pending


def admin_outcome(done: Any, request_id: Any) -> Dict[str, Any]:
    """The reply for a finished ``admin`` mutation (``done`` is its
    future: ``cancelled()`` / ``exception()`` / ``result()``)."""
    if done.cancelled():
        return protocol.error_response(
            protocol.SHUTTING_DOWN, "admin op cancelled at shutdown",
            request_id,
        )
    exc = done.exception()
    if exc is None:
        return protocol.ok_response(request_id, **done.result())
    if isinstance(exc, MembershipBusy):
        return protocol.error_response(protocol.BUSY, str(exc), request_id)
    if isinstance(exc, BAD_OPERANDS):
        return bad_request(exc, request_id)
    # (Before Python 3.11 ``asyncio.TimeoutError`` is not the builtin;
    # a bare one falls through to the generic INTERNAL below.)
    if isinstance(exc, (MembershipError, TimeoutError, ConnectionError,
                        OSError)):
        return protocol.error_response(
            protocol.INTERNAL, f"membership change failed: {exc}",
            request_id,
        )
    return protocol.error_response(
        protocol.INTERNAL, f"{type(exc).__name__}: {exc}", request_id,
    )
