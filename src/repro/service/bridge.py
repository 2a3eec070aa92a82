"""The sim-time bridge: live asyncio requests into the discrete-event rack.

The simulator only moves when :meth:`Simulator.run` is called, so a live
service needs something to turn the crank.  The bridge's *pump* is a
callback on the asyncio event loop, not a task: the first submission
with no turn queued queues one with ``loop.call_soon``, so the turn runs
on the loop's next pass -- after every connection that was readable in
the same ``select`` has submitted its requests.  A turn advances the
simulator (event-driven -- the clock jumps straight to the next event,
it does not tick) and completes each request the moment its simulated
response reaches the client edge, by calling the request's ``then(payload,
exc)`` right there inside the turn.  After the turn returns it calls
``after_chunk`` (the server's response flush), so a request's bytes reach
the simulator in one loop hop and its answer is written in the same one.

A turn stops when the work does: the last live completion calls
:meth:`Simulator.stop` (once the writes the turn acked are flushed) and
the clock freezes at that instant.  ``chunk_us`` is only the upper bound
of a turn: it hands the loop to the socket handlers while stragglers are
in flight (the next turn is queued behind them) and walks the clock to
the deadline of a request nothing will answer.  With nothing in flight
no turn is queued, so simulated time -- and with it the rack's own
housekeeping (GC monitors, heartbeats, predictors, chaos schedules) --
advances only under load.

A caller that awaits instead submits without ``then`` and gets an
:class:`asyncio.Future`, whose setter is the request's ``then``: there is
one completion path, and the future's done-callbacks run on the loop's
next pass (so such a caller's flush must queue behind them).

An exception escaping the simulator fails the requests live in that
turn and is logged; the pump keeps turning.  Everything runs on the
event-loop thread -- the simulator is never touched concurrently --
which keeps the rack exactly as deterministic as it is under the batch
experiment runner.

Optionally the pump is *paced*: ``pace=1.0`` queues each next turn with
``loop.call_later`` for the simulated time the last one advanced (real
time), ``pace=10`` runs the rack ten times faster than real time, and
the default ``pace=0`` is free-running (as fast as the host allows; what
benchmarks want).
"""

import asyncio
import logging
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.config import RackConfig
from repro.cluster.rack import Rack
from repro.errors import ConfigError
from repro.kvstore.store import RackKvStore
from repro.metrics.collector import ExperimentMetrics
from repro.metrics.histogram import LogHistogram
from repro.sim.core import MSEC, SEC

logger = logging.getLogger(__name__)

#: How a request is completed: ``then(payload, None)`` with the response
#: payload, or ``then(None, exc)`` -- :class:`asyncio.TimeoutError` at
#: the sim deadline, :class:`asyncio.CancelledError` at a no-drain stop,
#: or whatever the simulator or the operand raised.
Then = Callable[[Optional[Dict[str, Any]], Optional[BaseException]], None]


def _settle(future: "asyncio.Future", payload: Optional[Dict[str, Any]],
            exc: Optional[BaseException]) -> None:
    """The ``then`` of a caller that awaits: settle its future (unless
    that caller has cancelled it meanwhile)."""
    if future.done():
        return
    if exc is None:
        future.set_result(payload)
    elif isinstance(exc, asyncio.CancelledError):
        future.cancel()
    else:
        future.set_exception(exc)


@dataclass
class BridgeStats:
    """A snapshot of the bridge's life so far."""

    sim_now_us: float
    inflight: int
    submitted: int
    completed: int
    timed_out: int
    sim_chunks: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "sim_now_us": self.sim_now_us,
            "inflight": float(self.inflight),
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "timed_out": float(self.timed_out),
            "sim_chunks": float(self.sim_chunks),
        }


class _Live:
    """One live request riding the simulator."""

    __slots__ = ("then", "t0_us", "deadline_us")

    def __init__(self, then: Then, t0_us: float, deadline_us: float) -> None:
        self.then = then
        self.t0_us = t0_us
        self.deadline_us = deadline_us


class SimTimeBridge:
    """Owns a rack and mediates between wall-clock and simulated time."""

    def __init__(
        self,
        config: RackConfig,
        *,
        chunk_us: float = 1.0 * MSEC,
        request_timeout_us: float = 5.0 * SEC,
        pace: float = 0.0,
        precondition: bool = True,
    ) -> None:
        if chunk_us <= 0:
            raise ConfigError(f"chunk_us must be positive, got {chunk_us}")
        if request_timeout_us <= 0:
            raise ConfigError("request_timeout_us must be positive")
        if pace < 0:
            raise ConfigError(f"pace must be >= 0, got {pace}")
        self.rack = Rack(config)
        if precondition:
            self.rack.precondition()
        #: Sim-time latencies of live requests (read/write classes), the
        #: same collector the batch runner uses -- so ``/stats`` reports
        #: the service with the experiment engine's vocabulary -- built
        #: from histograms, so it holds nothing per request served.  The
        #: KV store records its operations here too, each exactly once.
        self.metrics = ExperimentMetrics(LogHistogram)
        self.kv = RackKvStore(self.rack, client_name="svc-kv",
                              metrics=self.metrics)
        self._write_caches = [s.write_cache for s in self.rack.servers]
        for cache in self._write_caches:
            cache.on_clean = self._stop_if_settled
        self.chunk_us = chunk_us
        self.request_timeout_us = request_timeout_us
        self.pace = pace
        self._live: Dict[int, _Live] = {}
        self._token = 0
        self.submitted = 0
        self.completed = 0
        self.timed_out = 0
        self.sim_chunks = 0
        self._running = False
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        #: The queued pump turn (``None`` while parked).  It stays set
        #: while the turn runs, so a submission from inside the turn
        #: queues no second one.
        self._turn_handle: Optional["asyncio.Handle"] = None
        #: Answers of requests that completed inside their ``submit_*``
        #: (a scan that selects no key), for the next turn to deliver:
        #: ``then`` never runs before its ``submit_*`` has returned.
        self._early: List[Callable[[], None]] = []
        #: Resolved when nothing is live any more (a draining stop).
        self._idle: Optional["asyncio.Future"] = None
        #: Called after every pump turn that answered anything, once the
        #: completions in it have been handed to their ``then``.  The server hangs its response flush here: one socket
        #: write per connection per chunk instead of one per response
        #: (each tiny cross-process send pays a scheduler wakeup, which
        #: at thousands of requests per second costs more than the
        #: simulation itself).
        self.after_chunk: Optional[Callable[[], None]] = None

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the pump on the running event loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self._loop = asyncio.get_running_loop()
        # Serves whatever was submitted before the start.
        self._turn_handle = self._loop.call_soon(self._turn)

    async def stop(self, drain: bool = True,
                   drain_timeout_s: float = 10.0) -> None:
        """Stop the pump; with ``drain`` wait for in-flight requests first."""
        if not self._running:
            return
        if drain and self._live:
            self._idle = self._loop.create_future()
            try:
                await asyncio.wait((self._idle,), timeout=drain_timeout_s)
            finally:
                self._idle = None
        self._running = False
        if self._turn_handle is not None:
            self._turn_handle.cancel()
            self._turn_handle = None
        # Anything still live after a no-drain stop is cancelled so
        # callers awaiting those futures do not hang forever.
        self._answer_early()
        live, self._live = self._live, {}
        for entry in live.values():
            entry.then(None, asyncio.CancelledError())

    @property
    def inflight(self) -> int:
        return len(self._live)

    def stats(self) -> BridgeStats:
        return BridgeStats(
            sim_now_us=self.rack.sim.now,
            inflight=len(self._live),
            submitted=self.submitted,
            completed=self.completed,
            timed_out=self.timed_out,
            sim_chunks=self.sim_chunks,
        )

    # ------------------------------------------------------------ submission

    def submit_read(self, pair_index: int, lpn: int,
                    client: str = "live", replica: bool = False,
                    then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """Inject a raw vSSD read; answers ``{"latency_us": ...}``.

        ``client`` names the simulated network path the request rides
        (see :meth:`forget_client`).  ``replica=True`` addresses the
        pair's replica vSSD directly.  Every ``submit_*`` calls ``then``
        inside the pump turn that completes the request and returns
        ``None``; without ``then`` it returns a future instead.
        """
        pair = self._pair(pair_index)
        start = partial(self.rack.start_read, pair, self._lpn(pair, lpn),
                        client=client, target="replica" if replica else "primary")
        return self._track("read", start, lambda pkt: {
            "latency_us": self.rack.sim.now - pkt.issue_time,
            "storage_us": pkt.payload.get("storage_us"),
        }, then)

    def submit_write(self, pair_index: int, lpn: int, client: str = "live",
                     then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """Inject a replicated write; answers once every live replica acks."""
        pair = self._pair(pair_index)
        t0 = self.rack.sim.now
        start = partial(self.rack.start_write, pair, self._lpn(pair, lpn),
                        client=client)
        return self._track("write", start, lambda responses: {
            "replicas": len(responses),
            "latency_us": self.rack.sim.now - t0,
            "storage_us": max(
                (r.payload.get("storage_us", 0.0) for r in responses),
                default=None,
            ),
        }, then)

    # Every operation enters the rack here, inside the call: the rack's
    # and the store's callback cores send their packets at once, with no
    # process (and no start tick) per operation.  The KV operations are
    # tracked with no ``kind``: the store records them in ``metrics``.

    def submit_get(self, key: str, client: str = "live",
                   then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """KV point read; answers the value (or None) + latency."""
        return self._track(
            None, partial(self.kv.start_get, str(key)), lambda result: {
                "value": result[0], "found": result[0] is not None,
                "latency_us": result[1],
            }, then)

    def submit_put(self, key: str, value: str, client: str = "live",
                   then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """KV replicated write; answers the sim latency."""
        return self._track(
            None, partial(self.kv.start_put, str(key), str(value)),
            lambda latency: {"latency_us": latency}, then)

    def submit_delete(self, key: str, client: str = "live",
                      then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """KV replicated delete; answers the sim latency."""
        return self._track(
            None, partial(self.kv.start_delete, str(key)),
            lambda latency: {"latency_us": latency, "deleted": True}, then)

    def submit_scan(self, start_key: str, count: int, client: str = "live",
                    then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """KV range scan; answers the items + latency."""
        return self._track(
            None, partial(self.kv.start_scan, str(start_key), int(count)),
            lambda result: {
                "items": [[k, v] for k, v in result[0]],
                "count": len(result[0]),
                "latency_us": result[1],
            }, then)

    def forget_client(self, client: str) -> None:
        """Release the simulated path of a ``client`` that will submit
        no more (the server calls this when a connection closes)."""
        self.rack.forget_client(client)

    def _pair(self, pair_index: int):
        pairs = self.rack.pairs
        if not 0 <= pair_index < len(pairs):
            raise ConfigError(
                f"pair index {pair_index} out of range [0, {len(pairs)})"
            )
        return pairs[pair_index]

    @staticmethod
    def _lpn(pair, lpn: int) -> int:
        """``lpn`` checked against the pair's logical size, so a bad
        address is a ``BAD_REQUEST`` now and not a timeout later."""
        lpn = int(lpn)
        pages = pair.primary.logical_pages
        if not 0 <= lpn < pages:
            raise ConfigError(f"lpn {lpn} out of range [0, {pages})")
        return lpn

    def _track(self, kind: Optional[str], start, shape,
               then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """Register a live request and start it.

        ``start(done)`` launches the simulated operation, which calls
        ``done(value)`` from the event that ends it.  If ``start`` itself
        raises (an operand the model refuses) nothing stays registered and
        the caller sees the error.  ``shape`` turns the value into the
        response payload; it runs at completion time (on the event-loop
        thread, while the simulator sits at the completion instant, so
        ``sim.now`` reads as the finish time) and the payload goes to
        ``then`` -- or, with no ``then``, to the future returned.  The
        latency is recorded under ``kind`` unless that is ``None`` (the
        operation records itself).
        """
        future = None
        if then is None:
            future = asyncio.get_running_loop().create_future()
            then = partial(_settle, future)
        token = self._token = self._token + 1
        t0 = self.rack.sim.now
        self._live[token] = _Live(then, t0, t0 + self.request_timeout_us)

        def _finish(value: Any) -> None:
            live = self._live.pop(token, None)
            if live is None:
                return
            self._stop_if_settled()
            self.completed += 1
            try:
                payload, exc = shape(value), None
            except Exception as error:  # surfaced to the request's caller
                payload, exc = None, error
            else:
                if kind is not None:
                    self.metrics.record(kind, self.rack.sim.now - live.t0_us,
                                        at=self.rack.sim.now)
            if starting:
                self._early.append(partial(then, payload, exc))
            else:
                then(payload, exc)

        starting = True
        try:
            start(_finish)
        except BaseException:
            self._live.pop(token, None)
            raise
        starting = False
        self.submitted += 1
        if self._turn_handle is None and self._running:
            self._turn_handle = self._loop.call_soon(self._turn)
        return future

    # ------------------------------------------------------------------ pump

    def _turn(self) -> None:
        """One pump turn: answer the requests that completed inside their
        ``submit_*``, run the simulator until the last live request
        completes (at most ``chunk_us``), queue the next turn while
        anything is still live, and flush."""
        answered = self._answer_early()
        if not self._live:
            self._turn_handle = None
            if answered and self.after_chunk is not None:
                self.after_chunk()
            self._release_drain()
            return
        sim = self.rack.sim
        loop = self._loop
        wall_start = loop.time()
        sim_start = sim.now
        try:
            # At most chunk_us; the last live completion stops it.
            sim.run(until=sim_start + self.chunk_us)
        except Exception as exc:
            logger.exception("simulator raised at %.1f sim-us; failing "
                             "%d live request(s)", sim.now, len(self._live))
            self._fail_live(exc)
        self.sim_chunks += 1
        self._expire(sim.now)
        if self.pace > 0:
            # Hold the simulated clock to pace * wall-clock: the next
            # turn, whenever a request wants one, waits out this one.
            target_s = ((sim.now - sim_start) / SEC) / self.pace
            remaining = target_s - (loop.time() - wall_start)
            self._turn_handle = loop.call_later(max(0.0, remaining),
                                                self._turn)
        elif self._live or self._early:
            # Stragglers: the loop serves the sockets, then turns again.
            self._turn_handle = loop.call_soon(self._turn)
        else:
            self._turn_handle = None
        # The next turn is queued before the flush, so a flush that
        # raises costs the loop's error log, not the pump.
        if self.after_chunk is not None:
            self.after_chunk()
        if not self._live:
            self._release_drain()

    def _answer_early(self) -> bool:
        """Deliver the answers held back from inside ``submit_*``."""
        early, self._early = self._early, []
        for answer in early:
            answer()
        return bool(early)

    def _release_drain(self) -> None:
        """Nothing is live: release a draining :meth:`stop`."""
        idle = self._idle
        if idle is not None and not idle.done():
            idle.set_result(None)

    def _stop_if_settled(self) -> None:
        """End this pump turn once nothing is left of the requests it
        served: no live request, and every write they left in a DRAM
        cache flushed (else the flushes would land on the next turn's
        requests instead of behind these)."""
        if not self._live and all(c.clean for c in self._write_caches):
            self.rack.sim.stop()

    def _fail_live(self, exc: BaseException) -> None:
        """Fail every live request with ``exc`` (a contained pump fault)."""
        live, self._live = self._live, {}
        for entry in live.values():
            entry.then(None, exc)

    def _expire(self, now_us: float) -> None:
        """Fail live requests whose sim deadline has passed.

        A read addressed to a crashed server is silently dropped by the
        rack (the packet dies at the dead NIC); without a deadline the
        pump would advance simulated time forever waiting for it.
        """
        if not self._live:
            return
        expired: List[Tuple[int, _Live]] = [
            (token, live) for token, live in self._live.items()
            if now_us >= live.deadline_us
        ]
        for token, live in expired:
            self._live.pop(token, None)
            self.timed_out += 1
            live.then(None, asyncio.TimeoutError(
                f"simulated request exceeded "
                f"{self.request_timeout_us / SEC:.1f}s deadline"
            ))

    # ------------------------------------------------------------- reporting

    def stats_payload(self) -> Dict[str, Any]:
        """Everything ``/stats`` reports: bridge + collector + traces."""
        out: Dict[str, Any] = {"bridge": self.stats().as_dict()}
        out["metrics"] = self.metrics.summary()
        out["histograms"] = self.metrics.histograms()
        kv = self.kv
        out["kvstore"] = {
            "keys": float(len(kv)),
            "gets": float(kv.gets), "puts": float(kv.puts),
            "scans": float(kv.scans), "misses": float(kv.misses),
        }
        if self.rack.chaos is not None:
            out["chaos"] = self.rack.chaos.counters()
        tracer = self.rack.tracer
        if tracer.enabled:
            collection = tracer.collection()
            if collection is not None and len(collection.traces) > 0:
                out["traces"] = collection.summary()
                attribution = collection.attribution(percentile=99.0, kind="read")
                out["traces"]["p99_attribution"] = attribution.as_dict()
        return out
