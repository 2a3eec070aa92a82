"""The sim-time bridge: live asyncio requests into the discrete-event rack.

The simulator only moves when :meth:`Simulator.run` is called, so a live
service needs something to turn the crank.  The bridge runs a *pump*
task on the asyncio event loop: whenever at least one live request is in
flight it advances the simulator (event-driven -- the clock jumps
straight to the next event, it does not tick), completing each request's
:class:`asyncio.Future` the moment its simulated response reaches the
client edge.  A pump turn stops when the work does: the last live
completion calls :meth:`Simulator.stop` (once the writes the turn acked
are flushed) and the clock freezes at that instant.  ``chunk_us`` is only
the upper bound of a turn: it hands the loop to the socket handlers
while stragglers are in flight and walks the clock to the deadline of a
request nothing will answer.  With nothing in flight the pump parks, so
simulated time -- and with it the rack's own housekeeping (GC monitors,
heartbeats, predictors, chaos schedules) -- advances only under load.

An exception escaping the simulator fails the requests live in that
turn and is logged; the pump keeps turning.  Everything runs on the
event-loop thread -- the simulator is never touched concurrently --
which keeps the rack exactly as deterministic as it is under the batch
experiment runner.

Optionally the pump is *paced*: ``pace=1.0`` sleeps each turn out to
the simulated time it advanced (real time), ``pace=10`` runs the rack
ten times faster than real time, and the default ``pace=0`` is
free-running (as fast as the host allows; what benchmarks want).
"""

import asyncio
import logging
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.config import RackConfig
from repro.cluster.rack import Rack
from repro.errors import ConfigError
from repro.kvstore.store import RackKvStore
from repro.metrics.collector import ExperimentMetrics
from repro.metrics.histogram import LogHistogram
from repro.sim.core import MSEC, SEC

logger = logging.getLogger(__name__)


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

    __slots__ = ("future", "t0_us", "deadline_us")

    def __init__(self, future: "asyncio.Future", t0_us: float,
                 deadline_us: float) -> None:
        self.future = future
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
        self._pump_task: Optional["asyncio.Task"] = None
        self._wakeup: Optional["asyncio.Event"] = None
        #: Called after every pump turn, once the completions in it
        #: have resolved their futures (and as the pump parks after a
        #: request that completed with no turn).  The server hangs its
        #: response flush here: one socket write per connection per
        #: chunk instead of one per response (each tiny cross-process
        #: send pays a scheduler wakeup, which at thousands of requests
        #: per second costs more than the simulation itself).
        self.after_chunk: Optional[Any] = None

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the pump on the running event loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self._wakeup = asyncio.Event()
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def stop(self, drain: bool = True,
                   drain_timeout_s: float = 10.0) -> None:
        """Stop the pump; with ``drain`` wait for in-flight requests first."""
        if not self._running:
            return
        if drain and self._live:
            pending = [live.future for live in self._live.values()]
            await asyncio.wait(pending, timeout=drain_timeout_s)
        self._running = False
        if self._wakeup is not None:
            self._wakeup.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        # Anything still live after a no-drain stop is cancelled so
        # callers awaiting those futures do not hang forever.
        for token, live in list(self._live.items()):
            if not live.future.done():
                live.future.cancel()
            self._live.pop(token, None)

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
                    client: str = "live", replica: bool = False) -> "asyncio.Future":
        """Inject a raw vSSD read; resolves to ``{"latency_us": ...}``.

        ``client`` names the simulated network path the request rides
        (see :meth:`forget_client`).  ``replica=True`` addresses the
        pair's replica vSSD directly.
        """
        pair = self._pair(pair_index)
        start = partial(self.rack.start_read, pair, self._lpn(pair, lpn),
                        client=client, target="replica" if replica else "primary")
        return self._track("read", start, lambda pkt: {
            "latency_us": self.rack.sim.now - pkt.issue_time,
            "storage_us": pkt.payload.get("storage_us"),
        })

    def submit_write(self, pair_index: int, lpn: int,
                     client: str = "live") -> "asyncio.Future":
        """Inject a replicated write; resolves once every live replica acks."""
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
        })

    # Every operation enters the rack here, inside the call: the rack's
    # and the store's callback cores send their packets at once, with no
    # process (and no start tick) per operation.  The KV operations are
    # tracked with no ``kind``: the store records them in ``metrics``.

    def submit_get(self, key: str, client: str = "live") -> "asyncio.Future":
        """KV point read; resolves to value (or None) + latency."""
        return self._track(
            None, partial(self.kv.start_get, str(key)), lambda result: {
                "value": result[0], "found": result[0] is not None,
                "latency_us": result[1],
            })

    def submit_put(self, key: str, value: str,
                   client: str = "live") -> "asyncio.Future":
        """KV replicated write; resolves to the sim latency."""
        return self._track(
            None, partial(self.kv.start_put, str(key), str(value)),
            lambda latency: {"latency_us": latency})

    def submit_delete(self, key: str,
                      client: str = "live") -> "asyncio.Future":
        """KV replicated delete; resolves to the sim latency."""
        return self._track(
            None, partial(self.kv.start_delete, str(key)),
            lambda latency: {"latency_us": latency, "deleted": True})

    def submit_scan(self, start_key: str, count: int,
                    client: str = "live") -> "asyncio.Future":
        """KV range scan; resolves to the items + latency."""
        return self._track(
            None, partial(self.kv.start_scan, str(start_key), int(count)),
            lambda result: {
                "items": [[k, v] for k, v in result[0]],
                "count": len(result[0]),
                "latency_us": result[1],
            })

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

    def _track(self, kind: Optional[str], start, shape) -> "asyncio.Future":
        """Register a live request with an asyncio future and start it.

        ``start(then)`` launches the simulated operation, which calls
        ``then(value)`` from the event that ends it.  If ``start`` itself
        raises (an operand the model refuses) nothing stays registered and
        the caller sees the error.  ``shape`` turns the value into the
        response payload; it runs at completion time (on the event-loop
        thread, while the simulator sits at the completion instant, so
        ``sim.now`` reads as the finish time).  The latency is recorded
        under ``kind`` unless that is ``None`` (the operation records
        itself).
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        token = self._token = self._token + 1
        t0 = self.rack.sim.now
        self._live[token] = _Live(
            future, t0, t0 + self.request_timeout_us
        )

        def _finish(value: Any) -> None:
            live = self._live.pop(token, None)
            if live is None:
                return
            self._stop_if_settled()
            if future.done():
                return
            self.completed += 1
            try:
                payload = shape(value)
            except Exception as exc:  # surfaced to the awaiting handler
                future.set_exception(exc)
                return
            if kind is not None:
                self.metrics.record(kind, self.rack.sim.now - live.t0_us,
                                    at=self.rack.sim.now)
            future.set_result(payload)

        try:
            start(_finish)
        except BaseException:
            del self._live[token]
            raise
        self.submitted += 1
        if self._wakeup is not None:
            self._wakeup.set()
        return future

    # ------------------------------------------------------------------ pump

    async def _pump(self) -> None:
        sim = self.rack.sim
        assert self._wakeup is not None
        loop = asyncio.get_running_loop()
        # ``submitted`` at the last flush queued: a request that came
        # since and completed with no simulated work runs no turn.
        flushed = 0
        while True:
            if not self._live:
                if self.submitted != flushed and self.after_chunk is not None:
                    loop.call_soon(self.after_chunk)
                flushed = self.submitted
                if not self._running:
                    return
                self._wakeup.clear()
                # Re-check: a submission may have raced the clear.
                if not self._live and self._running:
                    await self._wakeup.wait()
                continue
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
            flushed = self.submitted
            if self.after_chunk is not None:
                # Futures resolve their done-callbacks via call_soon, so
                # the flush must queue *behind* them, not run here.
                loop.call_soon(self.after_chunk)
            if self.pace > 0:
                # Hold the simulated clock to pace * wall-clock.
                target_s = ((sim.now - sim_start) / SEC) / self.pace
                remaining = target_s - (loop.time() - wall_start)
                await asyncio.sleep(max(0.0, remaining))
            else:
                # Yield so connection handlers can read/write sockets
                # between chunks; free-running otherwise.
                await asyncio.sleep(0)

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
            if not entry.future.done():
                entry.future.set_exception(exc)

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
            if not live.future.done():
                live.future.set_exception(
                    asyncio.TimeoutError(
                        f"simulated request exceeded "
                        f"{self.request_timeout_us / SEC:.1f}s deadline"
                    )
                )

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
