"""Open/closed-loop load generation against a running rack service.

* **closed loop**: N concurrent clients, each issuing the next request
  the moment the previous one answers -- measures capacity at a fixed
  concurrency (what the 32-client localhost benchmark runs);
* **open loop**: requests fired at a target aggregate rate regardless
  of completions (Poisson or uniform gaps) -- the coordinated-omission-
  free way to find where a service starts shedding.

Latencies are measured client-side in wall-clock time; ``BUSY`` sheds
are counted separately and *excluded* from the latency distribution, so
an overloaded run reports the p99 of admitted requests plus an explicit
shed rate rather than a meaningless blend.
"""

import asyncio
import bisect
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.metrics.percentiles import percentile
from repro.service import protocol
from repro.service.client import ClientConfig, ServiceClient, ServiceError


@dataclass
class TenantReport:
    """One tenant's slice of a multi-tenant run (client-side view)."""

    sent: int = 0
    ok: int = 0
    busy: int = 0
    errors: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    def latency_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return percentile(self.latencies_ms, q)


@dataclass
class LoadgenReport:
    """Client-side view of one load-generation run."""

    mode: str
    clients: int
    wall_s: float
    sent: int = 0
    ok: int = 0
    busy: int = 0
    errors: int = 0
    retried: int = 0
    #: The framing the run actually used after negotiation ("json"/"bin").
    protocol: str = "json"
    #: Key/pair popularity shape the run drew from ("uniform"/"zipf").
    key_dist: str = "uniform"
    #: Wall seconds the generator spent encoding requests + decoding
    #: responses (closed loop only) -- the loadgen runs one event loop,
    #: so ``codec_s / wall_s`` is the codec's share of generator time.
    codec_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    server_stats: Optional[Dict] = None
    #: Per-tenant slices, present only when the run assigned tenants.
    tenants: Dict[str, TenantReport] = field(default_factory=dict)

    def tenant_lane(self, tenant: str) -> TenantReport:
        lane = self.tenants.get(tenant)
        if lane is None:
            lane = self.tenants[tenant] = TenantReport()
        return lane

    @property
    def codec_share(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.codec_s / self.wall_s

    @property
    def throughput_rps(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.ok / self.wall_s

    @property
    def shed_fraction(self) -> float:
        if self.sent == 0:
            return 0.0
        return self.busy / self.sent

    def latency_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return percentile(self.latencies_ms, q)

    def describe(self) -> str:
        lines = [
            f"{self.mode}-loop loadgen: {self.clients} clients, "
            f"{self.wall_s:.2f}s wall",
            f"  sent {self.sent}  ok {self.ok}  busy {self.busy} "
            f"({self.shed_fraction:.1%} shed)  errors {self.errors}"
            + (f"  retried {self.retried}" if self.retried else ""),
            f"  throughput {self.throughput_rps:,.0f} req/s (admitted)",
            f"  protocol {self.protocol}"
            + (f"  key-dist {self.key_dist}"
               if self.key_dist != "uniform" else "")
            + (f"  codec {self.codec_s:.2f}s "
               f"({self.codec_share:.1%} of wall)"
               if self.codec_s > 0 else ""),
        ]
        if self.latencies_ms:
            lines.append(
                f"  latency ms  p50 {self.latency_ms(50):.2f}  "
                f"p90 {self.latency_ms(90):.2f}  "
                f"p99 {self.latency_ms(99):.2f}  "
                f"max {max(self.latencies_ms):.2f}"
            )
        for name in sorted(self.tenants):
            lane = self.tenants[name]
            p99 = (f"  p99 {lane.latency_ms(99):.2f}ms"
                   if lane.latencies_ms else "")
            lines.append(
                f"  tenant {name}: sent {lane.sent}  ok {lane.ok}  "
                f"busy {lane.busy}  errors {lane.errors}{p99}"
            )
        if self.server_stats:
            bridge = self.server_stats.get("bridge", {})
            metrics = self.server_stats.get("metrics", {})
            admission = self.server_stats.get("admission", {})
            lines.append(
                f"  server: sim_now {bridge.get('sim_now_us', 0) / 1e6:.3f}s  "
                f"completed {bridge.get('completed', 0):.0f}  "
                f"shed {admission.get('shed_queue_full', 0):.0f}"
            )
            routing = self.server_stats.get("routing", {})
            if routing:
                lines.append(
                    f"  routing: p2c_picks "
                    f"{routing.get('p2c_picks', 0):.0f}  "
                    f"diverted {routing.get('p2c_diverted', 0):.0f}  "
                    f"fallbacks {routing.get('fallbacks', 0):.0f}"
                )
            migration = self.server_stats.get("migration", {})
            if migration.get("cutovers", 0) or migration.get("active", 0) \
                    or migration.get("aborts", 0):
                lines.append(
                    f"  migration: epoch {migration.get('epoch', 0):.0f}  "
                    f"keys_moved {migration.get('keys_moved', 0):.0f}  "
                    f"forwards {migration.get('write_forwards', 0):.0f}  "
                    f"aborts {migration.get('aborts', 0):.0f}"
                )
            for key in sorted(metrics):
                if key.endswith(("_avg_us", "_p99_us")):
                    lines.append(f"    {key:24s} {metrics[key]:12.1f}")
        return "\n".join(lines)


class ZipfSampler:
    """A seeded zipfian rank sampler over ``[0, n)``.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1) ** s`` -- rank 0 is the hottest -- via one uniform
    draw and a bisect over the precomputed cumulative weights, so
    sampling is O(log n) and fully determined by the caller's ``rng``.
    The identity rank->index mapping is deliberate: key ``k00000000``
    (or pair 0) is always the hot spot, which makes skew tests and the
    routing benchmark easy to reason about.
    """

    def __init__(self, n: int, s: float, rng: "random.Random") -> None:
        if n < 1:
            raise ConfigError(f"zipf population must be >= 1, got {n}")
        if s <= 0:
            raise ConfigError(f"zipf exponent s must be > 0, got {s}")
        self.n = int(n)
        self.s = float(s)
        self._rng = rng
        cumulative: List[float] = []
        total = 0.0
        for rank in range(self.n):
            total += 1.0 / float(rank + 1) ** self.s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self) -> int:
        return bisect.bisect_right(
            self._cumulative, self._rng.random() * self._total
        )


def make_key_sampler(key_dist: str, zipf_s: float, n: int,
                     rng: "random.Random") -> Optional[ZipfSampler]:
    """``None`` for uniform (the rng's own randrange stays the source --
    byte-identical to older generators); a :class:`ZipfSampler` for zipf."""
    if key_dist == "uniform":
        return None
    if key_dist == "zipf":
        return ZipfSampler(n, zipf_s, rng)
    raise ConfigError(
        f"key_dist must be uniform/zipf, got {key_dist!r}"
    )


def _make_op(rng: "random.Random", write_ratio: float, kind: str,
             pairs: int, keyspace: int,
             sampler: Optional[ZipfSampler] = None) -> Dict:
    if kind == "kv":
        index = sampler.sample() if sampler else rng.randrange(keyspace)
        key = f"k{index:08d}"
        if rng.random() < write_ratio:
            return {"type": "put", "key": key, "value": f"v{key}"}
        return {"type": "get", "key": key}
    pair = sampler.sample() if sampler else rng.randrange(pairs)
    lpn = rng.randrange(keyspace)
    if rng.random() < write_ratio:
        return {"type": "write", "pair": pair, "lpn": lpn}
    return {"type": "read", "pair": pair, "lpn": lpn}


class _ClosedLoopConnection(asyncio.Protocol):
    """One closed-loop connection, driven straight on the transport.

    A response arriving *is* the trigger for the next request, so the
    driver needs no per-request future, task, or stream -- just a frame
    decoder and an id->send-time map.  Keeping the generator this lean
    matters on small hosts: a heavyweight client steals CPU from the
    server under test and reports the generator's ceiling, not the
    service's.
    """

    def __init__(self, index: int, quota: int, pipeline: int,
                 report: LoadgenReport, write_ratio: float, kind: str,
                 pairs: int, keyspace: int, seed: int,
                 retries: int = 0, wire_protocol: str = "json",
                 key_dist: str = "uniform", zipf_s: float = 1.1,
                 tenant: Optional[str] = None) -> None:
        self.report = report
        self.tenant = tenant
        self.lane = report.tenant_lane(tenant) if tenant else None
        self.quota = quota
        self.pipeline = pipeline
        self.write_ratio = write_ratio
        self.kind = kind
        self.pairs = pairs
        self.keyspace = keyspace
        self.retries = retries
        self.wire_protocol = wire_protocol
        self.use_bin = False
        self._negotiating = False
        self.client_name = f"loadgen-{index}"
        self.rng = random.Random(seed * 1_000_003 + index)
        self.sampler = make_key_sampler(
            key_dist, zipf_s, keyspace if kind == "kv" else pairs, self.rng,
        )
        self.decoder = protocol.FrameDecoder()
        self.sent = 0
        self.deadline: Optional[float] = None
        # rid -> (send time, the op payload, attempt number) so a
        # retryable rejection can be re-sent as the same logical op.
        self._inflight: Dict[int, Tuple[float, Dict, int]] = {}
        self._ids = itertools.count(1)
        self.transport: Optional["asyncio.Transport"] = None
        self.done: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )

    # ------------------------------------------------------------- protocol

    def connection_made(self, transport: "asyncio.BaseTransport") -> None:
        self.transport = transport  # type: ignore[assignment]

    def start(self, deadline: Optional[float]) -> None:
        """Fire the initial window (called once all connections are up).

        Under ``wire_protocol`` "auto"/"bin" a JSON ``hello`` goes out
        first and the window waits for its answer -- binary frames only
        ever follow a successful negotiation.  A tenant-bound connection
        hellos too (declaring its tenant), even on the plain JSON wire.
        """
        self.deadline = deadline
        if self.wire_protocol != "json" or self.tenant is not None:
            self._negotiating = True
            hello = {"type": "hello", "v": protocol.PROTOCOL_VERSION,
                     "id": 0}
            if self.tenant is not None:
                hello["tenant"] = self.tenant
            self.transport.write(protocol.encode_frame(hello))
            return
        self._fire_window()

    def _fire_window(self) -> None:
        burst = bytearray()
        for _ in range(self.pipeline):
            if not self._may_send():
                break
            burst += self._next_request()
        if burst:
            self.transport.write(bytes(burst))
        elif not self._inflight:
            self._finish()

    def data_received(self, data: bytes) -> None:
        t_dec = time.perf_counter()
        try:
            responses = self.decoder.feed(data)
        except protocol.FrameError:
            self._abort()
            return
        self.report.codec_s += time.perf_counter() - t_dec
        if self._negotiating:
            hello = next((r for r in responses if r.get("id") == 0), None)
            if hello is not None:
                responses = [r for r in responses if r.get("id") != 0]
                self._negotiating = False
                if not hello.get("ok"):
                    # A rejected hello (e.g. unknown tenant) fails the
                    # run loudly instead of silently riding "default".
                    self.done.set_exception(ConfigError(
                        f"hello rejected: {hello.get('message', hello)}"
                    ))
                    if (self.transport is not None
                            and not self.transport.is_closing()):
                        self.transport.close()
                    return
                capable = "bin" in (hello.get("capabilities") or [])
                if not capable and self.wire_protocol == "bin":
                    self.done.set_exception(ConfigError(
                        "server does not offer the 'bin' capability"
                    ))
                    if (self.transport is not None
                            and not self.transport.is_closing()):
                        self.transport.close()
                    return
                if self.wire_protocol != "json":
                    self.use_bin = capable
                    self.report.protocol = "bin" if capable else "json"
                self._fire_window()
        now = time.monotonic()
        burst = bytearray()
        for response in responses:
            entry = self._inflight.pop(response.get("id"), None)
            if entry is None:
                continue
            t0, op, attempt = entry
            if response.get("ok"):
                self.report.ok += 1
                self.report.latencies_ms.append((now - t0) * 1e3)
                if self.lane is not None:
                    self.lane.ok += 1
                    self.lane.latencies_ms.append((now - t0) * 1e3)
            elif (response.get("error") in (protocol.BUSY, protocol.TIMEOUT)
                  and attempt < self.retries):
                # Re-send the same logical op in this pipeline slot; it
                # does not consume quota (same op, new attempt).
                self.report.retried += 1
                burst += self._encode(op, attempt + 1)
                continue
            elif response.get("error") == protocol.BUSY:
                self.report.busy += 1
                if self.lane is not None:
                    self.lane.busy += 1
            else:
                self.report.errors += 1
                if self.lane is not None:
                    self.lane.errors += 1
            if self._may_send():
                burst += self._next_request()
        if burst:
            self.transport.write(bytes(burst))
        elif not self._inflight and not self._negotiating:
            self._finish()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.done.done():
            # Anything still unanswered when the server hangs up is an
            # error from the client's point of view.
            self.report.errors += len(self._inflight)
            if self.lane is not None:
                self.lane.errors += len(self._inflight)
            self._inflight.clear()
            self.done.set_result(None)

    # -------------------------------------------------------------- helpers

    def _may_send(self) -> bool:
        if self.deadline is not None:
            return time.monotonic() < self.deadline
        return self.sent < self.quota

    def _next_request(self) -> bytes:
        op = _make_op(self.rng, self.write_ratio, self.kind, self.pairs,
                      self.keyspace, self.sampler)
        self.sent += 1
        self.report.sent += 1
        if self.lane is not None:
            self.lane.sent += 1
        return self._encode(op, 0)

    def _encode(self, op: Dict, attempt: int) -> bytes:
        op = dict(op)
        rid = next(self._ids)
        op["id"] = rid
        op["client"] = self.client_name
        self._inflight[rid] = (time.monotonic(), op, attempt)
        t_enc = time.perf_counter()
        frame = protocol.encode_frame_as(op, self.use_bin)
        self.report.codec_s += time.perf_counter() - t_enc
        return frame

    def _finish(self) -> None:
        if not self.done.done():
            self.done.set_result(None)
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()

    def _abort(self) -> None:
        self.report.errors += len(self._inflight)
        if self.lane is not None:
            self.lane.errors += len(self._inflight)
        self._inflight.clear()
        self._finish()


async def _issue(client: ServiceClient, op: Dict,
                 report: LoadgenReport) -> None:
    t0 = time.monotonic()
    report.sent += 1
    lane = report.tenant_lane(client.tenant) if client.tenant else None
    if lane is not None:
        lane.sent += 1
    try:
        await client.request(op)
    except ServiceError as exc:
        if exc.is_busy:
            report.busy += 1
            if lane is not None:
                lane.busy += 1
        else:
            report.errors += 1
            if lane is not None:
                lane.errors += 1
        return
    except (ConnectionError, asyncio.CancelledError):
        report.errors += 1
        if lane is not None:
            lane.errors += 1
        return
    latency_ms = (time.monotonic() - t0) * 1e3
    report.latencies_ms.append(latency_ms)
    report.ok += 1
    if lane is not None:
        lane.ok += 1
        lane.latencies_ms.append(latency_ms)


async def run_loadgen(
    host: str,
    port: int,
    *,
    mode: str = "closed",
    clients: int = 32,
    requests_per_client: int = 200,
    pipeline: int = 1,
    duration_s: float = 0.0,
    rate_rps: float = 5000.0,
    write_ratio: float = 0.3,
    kind: str = "raw",
    pairs: int = 4,
    keyspace: int = 1024,
    key_dist: str = "uniform",
    zipf_s: float = 1.1,
    seed: int = 42,
    retries: int = 0,
    wire_protocol: str = "auto",
    fetch_stats: bool = True,
    connect_retries: int = 25,
    tenants: Optional[List[str]] = None,
) -> LoadgenReport:
    """Drive the service and return the client-side report.

    In closed-loop mode each of ``clients`` connections runs
    ``requests_per_client`` back-to-back requests (or keeps going until
    ``duration_s``, when given); ``pipeline`` > 1 keeps that many
    requests outstanding per connection, using the protocol's id
    matching -- the knob that separates measuring *latency at fixed
    concurrency* (1) from *capacity* (8+).  In open-loop mode requests
    are fired across the connections at ``rate_rps`` aggregate with
    exponential gaps for ``duration_s`` seconds.

    ``retries`` re-sends a request up to that many times when the server
    answers ``BUSY``/``TIMEOUT`` (or, open loop, the connection drops) --
    the knob that turns transient chaos-window failures into retried
    successes instead of errors.

    ``wire_protocol`` picks the framing: ``"auto"`` (default) negotiates
    via ``hello`` and uses binary iff the server offers it, ``"json"``
    stays on v1 JSON (no hello -- byte-identical to older generators),
    ``"bin"`` demands binary and fails when unavailable.  The framing
    the run actually used lands in ``report.protocol``.

    ``key_dist`` shapes popularity: ``"uniform"`` (default, the exact
    randrange stream older generators drew) or ``"zipf"`` with exponent
    ``zipf_s`` -- raw ops skew which *pair* is hit, kv ops which *key*,
    with rank 0 (pair 0 / ``k00000000``) always the hottest.  Each
    closed-loop connection samples from its own seeded stream, so a run
    is reproducible for any client count.

    ``tenants`` assigns connections to QoS tenant names round-robin
    (connection ``i`` serves ``tenants[i % len(tenants)]``), so e.g.
    ``["gold", "silver", "bronze"]`` across 12 clients drives a
    3-tenant-class mix at 4 connections per class.  Tenant-bound
    connections declare themselves via ``hello`` and the report grows
    per-tenant lanes (``report.tenants``) with their own latency
    distributions.
    """
    if mode not in ("closed", "open"):
        raise ConfigError(f"mode must be closed/open, got {mode!r}")
    if clients < 1:
        raise ConfigError(f"clients must be >= 1, got {clients}")
    if pipeline < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {pipeline}")
    if kind not in ("raw", "kv"):
        raise ConfigError(f"kind must be raw/kv, got {kind!r}")
    if mode == "open" and duration_s <= 0:
        raise ConfigError("open-loop mode needs duration_s > 0")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    if wire_protocol not in ("json", "bin", "auto"):
        raise ConfigError(
            f"wire_protocol must be json/bin/auto, got {wire_protocol!r}"
        )
    if key_dist not in ("uniform", "zipf"):
        raise ConfigError(
            f"key_dist must be uniform/zipf, got {key_dist!r}"
        )
    if key_dist == "zipf" and zipf_s <= 0:
        raise ConfigError(f"zipf_s must be > 0, got {zipf_s}")
    if tenants is not None:
        if not tenants or not all(
                isinstance(t, str) and t for t in tenants):
            raise ConfigError(
                f"tenants must be a non-empty list of non-empty tenant "
                f"names, got {tenants!r}"
            )
    report = LoadgenReport(mode=mode, clients=clients, wall_s=0.0,
                           key_dist=key_dist)
    if mode == "closed":
        await _closed_loop(host, port, report, clients,
                           requests_per_client, duration_s, write_ratio,
                           kind, pairs, keyspace, seed, pipeline,
                           connect_retries, retries, wire_protocol,
                           key_dist, zipf_s, tenants)
    else:
        pool: List[ServiceClient] = []
        for i in range(clients):
            client = ServiceClient(host, port, client_name=f"loadgen-{i}",
                                   config=ClientConfig(
                                       max_retries=retries,
                                       retry_backoff_s=0.005,
                                       wire_protocol=wire_protocol,
                                       tenant=(tenants[i % len(tenants)]
                                               if tenants else None),
                                   ))
            for attempt in range(connect_retries):
                try:
                    await client.connect()
                    break
                except OSError:
                    if attempt == connect_retries - 1:
                        raise
                    await asyncio.sleep(0.2)
            pool.append(client)
        report.protocol = pool[0].negotiated_protocol if pool else "json"
        t_start = time.monotonic()
        try:
            await _open_loop(pool, report, duration_s, rate_rps,
                             write_ratio, kind, pairs, keyspace, seed,
                             key_dist, zipf_s)
            report.wall_s = time.monotonic() - t_start
        finally:
            for client in pool:
                report.retried += client.counters["retries"]
                await client.close()
    if fetch_stats:
        try:
            async with ServiceClient(host, port,
                                     client_name="loadgen-stats") as probe:
                stats = await probe.stats()
            report.server_stats = {
                k: v for k, v in stats.items() if k not in ("ok", "id")
            }
        except (ServiceError, ConnectionError, OSError):
            pass
    return report


async def _closed_loop(host: str, port: int, report: LoadgenReport,
                       clients: int, requests_per_client: int,
                       duration_s: float, write_ratio: float, kind: str,
                       pairs: int, keyspace: int, seed: int,
                       pipeline: int, connect_retries: int,
                       retries: int = 0,
                       wire_protocol: str = "json",
                       key_dist: str = "uniform",
                       zipf_s: float = 1.1,
                       tenants: Optional[List[str]] = None) -> None:
    loop = asyncio.get_running_loop()
    connections: List[_ClosedLoopConnection] = []
    for i in range(clients):
        conn = _ClosedLoopConnection(i, requests_per_client, pipeline,
                                     report, write_ratio, kind, pairs,
                                     keyspace, seed, retries,
                                     wire_protocol, key_dist, zipf_s,
                                     tenant=(tenants[i % len(tenants)]
                                             if tenants else None))
        for attempt in range(connect_retries):
            try:
                await loop.create_connection(lambda c=conn: c, host, port)
                break
            except OSError:
                if attempt == connect_retries - 1:
                    raise
                await asyncio.sleep(0.2)
        connections.append(conn)
    # Start every connection's window only once all are connected, so the
    # measured interval holds the full concurrency throughout.
    t_start = time.monotonic()
    deadline = (t_start + duration_s) if duration_s > 0 else None
    for conn in connections:
        conn.start(deadline)
    await asyncio.gather(*(conn.done for conn in connections))
    report.wall_s = time.monotonic() - t_start


async def _open_loop(pool: List[ServiceClient], report: LoadgenReport,
                     duration_s: float, rate_rps: float, write_ratio: float,
                     kind: str, pairs: int, keyspace: int, seed: int,
                     key_dist: str = "uniform",
                     zipf_s: float = 1.1) -> None:
    if rate_rps <= 0:
        raise ConfigError(f"open-loop rate must be positive, got {rate_rps}")
    rng = random.Random(seed)
    sampler = make_key_sampler(key_dist, zipf_s,
                               keyspace if kind == "kv" else pairs, rng)
    deadline = time.monotonic() + duration_s
    outstanding: List["asyncio.Task"] = []
    loop = asyncio.get_running_loop()
    i = 0
    next_at = time.monotonic()
    while True:
        now = time.monotonic()
        if now >= deadline:
            break
        if now < next_at:
            await asyncio.sleep(next_at - now)
        op = _make_op(rng, write_ratio, kind, pairs, keyspace, sampler)
        client = pool[i % len(pool)]
        i += 1
        outstanding.append(loop.create_task(_issue(client, op, report)))
        # Exponential inter-arrival: Poisson arrivals at the target rate.
        next_at += rng.expovariate(rate_rps)
    if outstanding:
        await asyncio.wait(outstanding, timeout=30.0)
        for task in outstanding:
            if not task.done():
                task.cancel()
