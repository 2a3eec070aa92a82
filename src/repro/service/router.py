"""Sharded multi-rack serving: a consistent-hash router over live racks.

RackBlox §3.7 leaves multi-rack operation as future work; the batch
simulator models one rack.  This module serves several: a front-end
that owns N independent rack simulators -- each with
its own :class:`~repro.service.bridge.SimTimeBridge` pump, ToR switch
and admission controller -- and places traffic onto them with the seeded
consistent-hash ring from :mod:`repro.service.shard`.

Two deployment shapes share the wire protocol:

* :class:`ShardedRackService` -- **in-process**: all N racks ride one
  event loop behind one listener.  Full semantics (per-shard admission,
  GC-aware cross-rack fallback honouring the sync-staleness window,
  scatter-gather scans, rack-qualified fault schedules) and fully
  deterministic, but all racks share one core.
* :class:`ShardProxy` -- **multi-process**: one backend ``serve``
  process per rack, the proxy relaying frames at frame granularity
  (:class:`~repro.service.protocol.FrameSplitter`).  Each rack gets its
  own interpreter and core, which is what makes throughput scale
  near-linearly on multicore hosts (``benchmarks/test_service_loadgen.py``).

Routing rules (both shapes):

* raw ``read``/``write`` address a **global pair index** ``g`` in
  ``[0, racks * pairs_per_rack)``; the owner is
  ``ring.node_for(f"pair:{g}")`` and the local pair is
  ``g % pairs_per_rack``;
* ``get``/``put``/``del`` route by key to its authoritative owner -- the
  old one until a migration's cutover -- where a write to a moving key
  is then forwarded to the new one (one routine for both shapes,
  :func:`~repro.service.migration.forwarded_write`); ``scan``
  scatter-gathers every shard in-process (the proxy routes a scan to
  the start-key owner);
* when the router's *view* of the owner says both in-rack copies of the
  target pair are collecting, a raw read falls back to the next distinct
  ring node -- a cross-rack redirect, with a staleness caveat: the view
  refreshes only every ``gc_sync_s`` seconds;
* under ``--read-policy p2c`` raw reads instead go through the
  :class:`~repro.service.selector.ReplicaSelector`: power-of-two-choices
  over the pair's preference list, scored by live queue depth times a
  latency EWMA (both shapes), with the GC view folded in as a score
  penalty (in-process only) and strict-hash fallback whenever the load
  view is stale or a membership change is in flight.  Key-value ops are
  *not* replicated across racks, so they always route to their
  authoritative owner regardless of policy.
"""

import asyncio
import dataclasses
import re
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.config import RackConfig
from repro.errors import ConfigError
from repro.service import frontdoor, protocol, schema
from repro.service.admission import AdmissionController
from repro.service.bridge import BridgeStats, SimTimeBridge, Then
from repro.service.client import ServiceClient, ServiceError
from repro.service.membership import FleetController, MembershipError
from repro.service.migration import forwarded_write, run_membership_change
from repro.service.qos import QosScheduler
from repro.service.readcache import ReadCache
from repro.service.selector import (
    DEFAULT_EWMA_ALPHA,
    DEFAULT_STALE_AFTER_S,
    POLICY_HASH,
    POLICY_P2C,
    READ_POLICIES,
    ReplicaSelector,
    ReplicaStats,
)
from repro.service.server import RackService
from repro.service.shard import (
    DEFAULT_RING_SEED,
    DEFAULT_VNODES,
    HashRing,
    RackShard,
)

#: How often (wall seconds) the router refreshes its view of each
#: shard's GC state.  The batch fabric syncs after 40 us of simulated
#: inter-switch delay; a live front-end polls, and this is its window
#: of allowed staleness.
DEFAULT_GC_SYNC_S = 0.005

#: Score penalty (sim us) the selector adds to a replica whose target
#: pair the GC view says is both-copies-collecting -- large enough to
#: lose any realistic depth*latency race, so p2c mode keeps the hash
#: router's GC avoidance without a separate redirect path.
GC_SCORE_PENALTY_US = 1e6


def build_shard_configs(config: RackConfig, racks: int) -> List[RackConfig]:
    """Derive one config per rack from the base config.

    Each rack gets a distinct seed (so shards are independent rather
    than N clones replaying identical randomness) and only its slice of
    the fault schedule (events carrying ``rack: i`` or no rack at all).
    ``racks == 1`` returns the base config untouched -- the single-rack
    special case stays byte-identical to the unsharded service.
    """
    if racks < 1:
        raise ConfigError(f"racks must be >= 1, got {racks}")
    if racks == 1:
        return [config]
    out = []
    for index in range(racks):
        schedule = config.fault_schedule
        if schedule is not None:
            schedule = schedule.for_rack(index)
        out.append(dataclasses.replace(
            config, seed=config.seed + index, fault_schedule=schedule,
        ))
    return out


def _blend(ewma: Dict[int, float], node: int, latency_us: float,
           alpha: float) -> None:
    """Fold one observed latency into ``node``'s EWMA (a cold one seeds)."""
    prev = ewma.get(node, 0.0)
    if prev <= 0.0:
        ewma[node] = float(latency_us)
    else:
        ewma[node] = (1.0 - alpha) * prev + alpha * float(latency_us)


def _live_replica(fleet: FleetController, node: int, depth: float,
                  ewma: Dict[int, float],
                  stamps: Dict[int, float]) -> ReplicaStats:
    """A registered replica's stats: a stamp never set reads as stale."""
    stamp = stamps.get(node)
    plan = fleet.plan
    return ReplicaStats(
        depth=float(depth),
        ewma_us=ewma.get(node, 0.0),
        age_s=float("inf") if stamp is None else time.monotonic() - stamp,
        live=True,
        draining=(plan is not None and plan.kind == "drain"
                  and plan.node == node),
    )


def _routing_section(selector: Optional[ReplicaSelector], load_view: Any,
                     nodes: Sequence[int]) -> Optional[Dict[str, Any]]:
    """The ``routing`` stats section: selector counters plus the live
    per-replica load view of ``nodes`` (``None`` under hash policy, whose
    payload carries no such section)."""
    if selector is None:
        return None
    out: Dict[str, Any] = selector.stats_section()
    replicas: Dict[str, Dict[str, float]] = {}
    for node in nodes:
        stats = load_view.replica(node)
        replicas[str(node)] = {
            "depth": float(stats.depth),
            "ewma_us": float(stats.ewma_us),
            # never-synced reads as -1 (inf is not valid JSON)
            "age_s": (-1.0 if stats.age_s == float("inf")
                      else float(stats.age_s)),
        }
    out[schema.FIELD_ROUTING_REPLICAS] = replicas
    return out


def _deliver(future: "asyncio.Future",
             then: Optional[Then]) -> Optional["asyncio.Future"]:
    """``future`` itself for a caller that awaits; with ``then``, its
    outcome goes to ``then`` from a done-callback and nothing is
    returned (the bridge surface's two calling conventions)."""
    if then is None:
        return future

    def _then(fut: "asyncio.Future") -> None:
        if fut.cancelled():
            then(None, asyncio.CancelledError())
            return
        exc = fut.exception()
        then(None if exc is not None else fut.result(), exc)

    future.add_done_callback(_then)
    return None


class RouterLoadView:
    """The in-process router's live load view, one signal per layer.

    Queue depth reads straight off each shard (``shard.inflight`` is
    exact at decision time); the latency EWMA updates on every read
    completion the router observes (sim microseconds -- durations, so
    comparable across shards despite independent sim clocks); and the
    freshness stamp rides the GC sync loop, i.e. the same periodically-
    synced switch-table view the GC fallback trusts.  A cold EWMA seeds
    from the shard's own cumulative ``read_avg_us`` at the next sync --
    the INT/switch-view stage-latency bootstrap -- and until either
    source has spoken the replica reads as stale, which the selector
    answers with strict hash order.
    """

    def __init__(self, router: "ShardRouter", *,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        self._router = router
        self.ewma_alpha = float(ewma_alpha)
        self._ewma: Dict[int, float] = {}
        self._synced: Dict[int, float] = {}

    def observe(self, node: int, latency_us: float) -> None:
        _blend(self._ewma, node, latency_us, self.ewma_alpha)
        self._synced[node] = time.monotonic()

    def sync(self) -> None:
        """Refresh freshness stamps; seed cold EWMAs from shard metrics."""
        now = time.monotonic()
        for shard in self._router.shards:
            if self._ewma.get(shard.index, 0.0) <= 0.0:
                avg = shard.bridge.metrics.summary().get("read_avg_us")
                if avg:
                    self._ewma[shard.index] = float(avg)
            self._synced[shard.index] = now

    def replica(self, node: int) -> ReplicaStats:
        shard = self._router._by_index.get(node)
        if shard is None:  # deregistered = epoch-retired: dead to us
            return ReplicaStats(live=False, age_s=float("inf"))
        return _live_replica(self._router.fleet, node, shard.inflight,
                             self._ewma, self._synced)


class ShardRouter:
    """Owns N :class:`RackShard`s and routes requests onto them.

    The router implements the same surface the server expects of a
    bridge (``start``/``stop``/``inflight``/``stats``/``submit_*``/
    ``after_chunk``), so :class:`ShardedRackService` can hand it to the
    unmodified :class:`RackService` machinery.  A routed answer is the
    shard bridge's own future, handed to the caller's ``then`` from its
    done-callback; the router records nothing of it (the fleet's latency
    is the shards' histograms merged).
    """

    def __init__(self, shards: Sequence[RackShard], *,
                 vnodes: int = DEFAULT_VNODES,
                 ring_seed: int = DEFAULT_RING_SEED,
                 gc_sync_s: float = DEFAULT_GC_SYNC_S,
                 read_policy: str = POLICY_HASH,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S,
                 routing_trace=None) -> None:
        if not shards:
            raise ConfigError("a router needs at least one shard")
        if gc_sync_s < 0:
            raise ConfigError(f"gc_sync_s must be >= 0, got {gc_sync_s}")
        if read_policy not in READ_POLICIES:
            raise ConfigError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {read_policy!r}"
            )
        self.shards: List[RackShard] = list(shards)
        self._by_index = {shard.index: shard for shard in self.shards}
        if len(self._by_index) != len(self.shards):
            raise ConfigError("shard indices must be unique")
        #: Membership control plane: owns the ring, the epoch, and at
        #: most one live migration (``admit_rack``/``drain_rack``).
        self.fleet = FleetController(HashRing(
            (s.index for s in self.shards), vnodes=vnodes, seed=ring_seed,
        ))
        self.gc_sync_s = gc_sync_s
        # Construction recipe for racks admitted later; ``from_config``
        # fills these in, direct construction leaves them unset and
        # ``admit_rack`` then needs an explicit config.
        self._base_config: Optional[RackConfig] = None
        self._precondition = False
        self._bridge_kwargs: Dict[str, Any] = {}
        self._admission_kwargs: Dict[str, Any] = {}
        #: The router's (possibly stale) view of each shard's per-pair
        #: "both copies collecting" state -- what the fallback decides on.
        self._gc_views: Dict[int, Tuple[bool, ...]] = {
            shard.index: tuple(False for _ in range(shard.num_pairs))
            for shard in self.shards
        }
        self.routed = 0
        self.cross_rack_redirects = 0
        self.scatter_scans = 0
        #: Scatter rounds after a scan's first (a shard asked again).
        self.scan_reasks = 0
        self.unroutable = 0
        self.gc_view_commits = 0
        #: Load-aware read placement (RackSched-style p2c).  Under the
        #: default ``"hash"`` policy neither object exists and every
        #: code path is byte-identical to the plain router.
        self.read_policy = read_policy
        self.load_view: Optional[RouterLoadView] = None
        self.selector: Optional[ReplicaSelector] = None
        if read_policy == POLICY_P2C:
            self.load_view = RouterLoadView(self)
            self.selector = ReplicaSelector(
                self.load_view, policy=read_policy,
                stale_after_s=stale_after_s, trace=routing_trace,
            )
        #: Front-end read cache, attached by :class:`ShardedRackService`
        #: when caching is on.  The router's duty is correctness only:
        #: invalidate on migration-stream writes (they bypass the
        #: server's submit path) and fence at every epoch commit.
        self.read_cache: Optional[ReadCache] = None
        #: The server's flush.  Every shard pump calls :meth:`_flush_soon`
        #: after its turn, which queues this behind the done-callbacks
        #: the turn's futures queued; responses from other shards ride
        #: along for free.
        self.after_chunk: Optional[Callable[[], None]] = None
        for shard in self.shards:
            shard.bridge.after_chunk = self._flush_soon
        self._gc_task: Optional["asyncio.Task"] = None
        self._running = False

    @property
    def ring(self) -> HashRing:
        """The *current* ring -- swapped atomically at membership commit."""
        return self.fleet.ring

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        for shard in self.shards:
            await shard.start()
        if self.gc_sync_s > 0:
            self._gc_task = asyncio.get_running_loop().create_task(
                self._gc_sync_loop()
            )

    async def stop(self, drain: bool = True,
                   drain_timeout_s: float = 10.0) -> None:
        if not self._running:
            return
        self._running = False
        if self._gc_task is not None:
            self._gc_task.cancel()
            try:
                await self._gc_task
            except asyncio.CancelledError:
                pass
            self._gc_task = None
        await asyncio.gather(*(
            shard.stop(drain=drain, drain_timeout_s=drain_timeout_s)
            for shard in self.shards
        ))

    @property
    def inflight(self) -> int:
        return sum(shard.inflight for shard in self.shards)

    def _flush_soon(self, _done: Optional["asyncio.Future"] = None) -> None:
        """Queue the server's flush behind the done-callbacks already
        queued: a shard turn's completions, or (as a done-callback
        registered ahead of the caller's) an answer that settles from a
        leg's callback."""
        if self.after_chunk is not None:
            asyncio.get_running_loop().call_soon(self.after_chunk)

    # -------------------------------------------------------------- GC view

    async def _gc_sync_loop(self) -> None:
        while True:
            await asyncio.sleep(self.gc_sync_s)
            self.sync_gc_views()

    def sync_gc_views(self) -> None:
        """Commit each shard's *current* GC truth into the router view.

        Until this runs, the router routes on the old view -- exactly the
        staleness window the batch fabric's sync delay models.
        """
        for shard in self.shards:
            self._gc_views[shard.index] = shard.gc_busy_pairs()
        self.gc_view_commits += 1
        if self.load_view is not None:
            self.load_view.sync()

    # -------------------------------------------------------------- routing

    @property
    def total_pairs(self) -> int:
        return sum(shard.num_pairs for shard in self.shards)

    def _owner_of_pair(self, global_pair: int) -> RackShard:
        total = self.total_pairs
        if not 0 <= global_pair < total:
            raise ConfigError(
                f"pair index {global_pair} out of range [0, {total})"
            )
        node = self.ring.node_for(f"pair:{global_pair}")
        return self._by_index[node]

    def _local_pair(self, shard: RackShard, global_pair: int) -> int:
        return global_pair % shard.num_pairs

    def _route_read(self, global_pair: int) -> Tuple[RackShard, int, bool]:
        """(shard, local pair, redirected?) for a raw read.

        The fallback is RackBlox's redirect one level up: only
        when the router's view says *both* in-rack copies of the owner's
        pair are collecting does the read leave the rack, and then to the
        next distinct ring node (where the cross-rack replica of the
        pair lives under 2+1 placement).
        """
        owner = self._owner_of_pair(global_pair)
        local = self._local_pair(owner, global_pair)
        if len(self.shards) > 1:
            view = self._gc_views.get(owner.index, ())
            if local < len(view) and view[local]:
                nodes = self.ring.preference(f"pair:{global_pair}", count=2)
                if len(nodes) > 1:
                    fallback = self._by_index[nodes[1]]
                    return fallback, self._local_pair(fallback, global_pair), True
        return owner, local, False

    def _route_read_p2c(self, global_pair: int) -> Tuple[RackShard, int, bool]:
        """(shard, local pair, diverted?) under the p2c policy.

        Candidates are the first two distinct ring nodes for the pair in
        strict hash order -- under 2+1 placement the cross-rack replica
        the GC fallback already reads from -- restricted to registered
        shards.  The GC view feeds in as a score penalty instead of a
        separate redirect, so a both-copies-collecting owner loses the
        race the same way an overloaded one does.  Every fallback inside
        the selector resolves to hash order, so degraded p2c and plain
        hash place reads identically.
        """
        assert self.selector is not None
        owner = self._owner_of_pair(global_pair)  # also range-checks
        nodes = [
            node
            for node in self.ring.preference(f"pair:{global_pair}", count=2)
            if node in self._by_index
        ]
        if not nodes:
            return owner, self._local_pair(owner, global_pair), False
        penalties: Dict[int, float] = {}
        for node in nodes:
            shard = self._by_index[node]
            view = self._gc_views.get(node, ())
            local = self._local_pair(shard, global_pair)
            if local < len(view) and view[local]:
                penalties[node] = GC_SCORE_PENALTY_US
        plan = self.fleet.plan
        decision = self.selector.choose(
            f"pair:{global_pair}", nodes,
            migrating_node=plan.node if plan is not None else None,
            epoch=self.fleet.epoch, penalties=penalties,
        )
        chosen = self._by_index[decision.chosen]
        return chosen, self._local_pair(chosen, global_pair), \
            decision.diverted

    def shard_for_key(self, key: str) -> RackShard:
        """The shard holding the *authoritative* copy of ``key`` right
        now (the old owner while that key's range is migrating)."""
        return self._by_index[self.fleet.read_owner(str(key))]

    def shard_for_request(self, request: Dict[str, Any]) -> Optional[RackShard]:
        """The shard that would *execute* a request; None if unroutable.

        Unroutable requests (missing/bad operands, unknown types) are
        admitted through so the dispatch path raises the same
        ``BAD_REQUEST`` a single rack would.
        """
        rtype = request.get("type")
        try:
            if rtype in ("read", "write"):
                global_pair = int(request["pair"])
                if rtype == "read":
                    return self._route_read(global_pair)[0]
                return self._owner_of_pair(global_pair)
            if rtype in ("get", "put", "del"):
                return self.shard_for_key(str(request["key"]))
            if rtype == "scan":
                return self.shard_for_key(str(request.get("start", "")))
        except (KeyError, TypeError, ValueError, ConfigError):
            return None
        return None

    def try_admit(self, client: str, request: Dict[str, Any]) -> bool:
        """Route, then ask the owning shard's own admission controller.

        Scatter scans are metered against the start-key owner (one
        decision per request, not one per shard it touches).
        """
        shard = self.shard_for_request(request)
        if shard is None:
            self.unroutable += 1
            return True  # let dispatch raise the precise BAD_REQUEST
        return shard.admission.try_admit(client, shard.inflight)

    # ----------------------------------------------------------- submission

    def _answer(self, shard: RackShard, future: "asyncio.Future",
                then: Optional[Then], *, cross_rack: bool = False,
                read: bool = False) -> Optional["asyncio.Future"]:
        """The shard's own future, its answer tagged with the rack.

        The tag is a done-callback registered before the caller's, so
        the caller reads a payload that already carries ``rack`` (and
        ``cross_rack``); the bridge builds a fresh payload per answer.
        A read's latency also feeds the p2c load view.
        """
        def _tag(fut: "asyncio.Future") -> None:
            if fut.cancelled() or fut.exception() is not None:
                return
            payload = fut.result()
            if cross_rack:
                payload["cross_rack"] = True
            payload["rack"] = shard.index
            latency = payload.get("latency_us")
            if read and self.load_view is not None and latency is not None:
                self.load_view.observe(shard.index, float(latency))

        future.add_done_callback(_tag)
        return _deliver(future, then)

    def forget_client(self, client: str) -> None:
        """Release ``client``'s simulated path on every rack it may have
        touched (the bridge surface's connection-closed hook)."""
        for shard in self.shards:
            shard.bridge.forget_client(client)

    def submit_read(self, pair_index: int, lpn: int,
                    client: str = "live", replica: bool = False,
                    then: Optional[Then] = None,
                    ) -> Optional["asyncio.Future"]:
        redirected = False
        if self.selector is not None:
            shard, local, diverted = self._route_read_p2c(int(pair_index))
            if diverted:
                shard.redirected_in += 1
        else:
            shard, local, redirected = self._route_read(int(pair_index))
            if redirected:
                self.cross_rack_redirects += 1
                shard.redirected_in += 1
        self.routed += 1
        future = shard.bridge.submit_read(local, lpn, client, replica=replica)
        return self._answer(shard, future, then, cross_rack=redirected,
                            read=True)

    def submit_write(self, pair_index: int, lpn: int, client: str = "live",
                     then: Optional[Then] = None,
                     ) -> Optional["asyncio.Future"]:
        shard = self._owner_of_pair(int(pair_index))
        self.routed += 1
        future = shard.bridge.submit_write(
            self._local_pair(shard, int(pair_index)), lpn, client
        )
        return self._answer(shard, future, then)

    def submit_get(self, key: str, client: str = "live",
                   then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        key = str(key)
        shard = self._by_index[self.fleet.read_owner(key)]
        self.routed += 1
        return self._answer(shard, shard.bridge.submit_get(key, client),
                            then, read=True)

    def submit_put(self, key: str, value: str, client: str = "live",
                   then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        return self._write(str(key), lambda bridge: bridge.submit_put(
            key, value, client), then)

    def submit_delete(self, key: str, client: str = "live",
                      then: Optional[Then] = None,
                      ) -> Optional["asyncio.Future"]:
        return self._write(str(key), lambda bridge: bridge.submit_delete(
            key, client), then)

    def _write(self, key: str,
               submit: Callable[[SimTimeBridge], "asyncio.Future"],
               then: Optional[Then]) -> Optional["asyncio.Future"]:
        """A keyed write at its authoritative owner; to a moving key,
        :func:`forwarded_write` over the shards' bridges, whose answer
        settles from a leg's callback (hence the flush behind)."""
        primary, forward = self.fleet.write_route(key)
        self.routed += 1
        shard = self._by_index[primary]
        if forward is None:
            return self._answer(shard, submit(shard.bridge), then)

        async def write() -> Dict[str, Any]:
            payload = await forwarded_write(
                self.fleet, key, lambda n: submit(self._by_index[n].bridge))
            payload["rack"] = shard.index
            return payload

        task = asyncio.ensure_future(write())
        task.add_done_callback(self._flush_soon)
        return _deliver(task, then)

    def submit_scan(self, start_key: str, count: int, client: str = "live",
                    then: Optional[Then] = None) -> Optional["asyncio.Future"]:
        """Scatter-gather: every shard scans, the router merges.

        Keys are placed by hash, so a range is spread over all shards
        and each holds about ``count / N`` of the answer.  Every shard
        is asked for twice that share (never more than ``count``), and
        the merge keeps the ``count`` smallest keys ``>= start_key``
        whose reporting shard is the key's authoritative owner.  A
        shard whose leg came back full with its last key still below
        the merge's last (or while the merge is short) may hold more of
        the answer: it alone is asked again, from just past that key,
        until none is left -- so the answer is what asking every shard
        for ``count`` would return.  (Not a snapshot: each leg reflects
        its shard when it completes.  A shard drained away while the
        scan is out is not asked again -- after its cutover it owns
        nothing, so the merge filters its copies anyway.)  Each round
        completes when its slowest leg does; the latency is the sum
        over rounds.  The fleet's latency statistics count each leg
        once, as a read at its shard.
        """
        count = int(count)
        self.routed += 1
        self.scatter_scans += 1
        shards = list(self.shards)
        limit = min(count, 2 * -(-count // len(shards)))
        outer: "asyncio.Future" = asyncio.get_running_loop().create_future()
        found: Dict[int, List[List[str]]] = {s.index: [] for s in shards}
        inflight: List[Tuple[RackShard, "asyncio.Future"]] = []
        latency = 0.0

        def _ask(asks: List[Tuple[RackShard, str]]) -> None:
            inflight[:] = [
                (shard, shard.bridge.submit_scan(start, limit, client))
                for shard, start in asks
            ]
            remaining = len(inflight)

            def _leg_done(fut: "asyncio.Future") -> None:
                nonlocal remaining
                remaining -= 1
                if outer.done():
                    return
                if fut.cancelled():
                    outer.cancel()
                elif fut.exception() is not None:
                    outer.set_exception(fut.exception())
                elif remaining == 0:
                    _round_done()

            for _, leg in inflight:
                leg.add_done_callback(_leg_done)

        def _round_done() -> None:
            nonlocal latency
            legs = [(shard, leg.result()) for shard, leg in inflight]
            latency += max(r["latency_us"] for _, r in legs)
            for shard, r in legs:
                found[shard.index].extend(r["items"])
            # Keep only items whose reporting shard is the key's
            # authoritative owner: during (and right after) a migration
            # window both the source and destination hold copies of
            # moving keys, and post-abort shadow copies can linger
            # until cleanup.
            merged = sorted(
                (key, value)
                for index, items in found.items()
                for key, value in items
                if self.fleet.read_owner(key) == index
            )[:count]
            short = len(merged) < count
            # A shard drained away mid-scan has no pump left to answer,
            # and no key left to answer for.
            again = [
                (shard, r["items"][-1][0] + "\x00")
                for shard, r in legs
                if r["count"] == limit and shard.index in self._by_index
                and (short or r["items"][-1][0] < merged[-1][0])
            ]
            if again:
                self.scan_reasks += 1
                _ask(again)
                return
            outer.set_result({
                "items": [list(item) for item in merged],
                "count": len(merged),
                "latency_us": latency,
                "racks": len(shards),
            })

        def _cancelled(out: "asyncio.Future") -> None:
            if out.cancelled():
                for _, leg in inflight:
                    if not leg.done():
                        leg.cancel()

        _ask([(shard, start_key) for shard in shards])
        outer.add_done_callback(self._flush_soon)
        outer.add_done_callback(_cancelled)
        return _deliver(outer, then)

    # ------------------------------------------------------------ reporting

    def stats(self) -> BridgeStats:
        """Aggregate bridge counters (the drain summary's view)."""
        per = [shard.bridge.stats() for shard in self.shards]
        return BridgeStats(
            sim_now_us=max(s.sim_now_us for s in per),
            inflight=sum(s.inflight for s in per),
            submitted=sum(s.submitted for s in per),
            completed=sum(s.completed for s in per),
            timed_out=sum(s.timed_out for s in per),
            sim_chunks=sum(s.sim_chunks for s in per),
        )

    def router_section(self) -> Dict[str, float]:
        return {
            "racks": float(len(self.shards)),
            "virtual_nodes": float(self.ring.vnodes),
            "epoch": float(self.fleet.epoch),
            "routed": float(self.routed),
            "cross_rack_redirects": float(self.cross_rack_redirects),
            "scatter_scans": float(self.scatter_scans),
            "scan_reasks": float(self.scan_reasks),
            "unroutable": float(self.unroutable),
            "gc_view_commits": float(self.gc_view_commits),
        }

    # ------------------------------------------------------------ membership

    def _stream_endpoints(self):
        """Bridge-level ``(scan, put, delete, close)`` for the migration
        stream -- the same simulated serving path foreground traffic
        takes, under the ``"migrate"`` client name."""
        async def scan(src: int, start: str, count: int):
            result = await self._by_index[src].bridge.submit_scan(
                start, count, "migrate"
            )
            return [(key, value) for key, value in result["items"]]

        async def put(dst: int, key: str, value: str) -> None:
            await self._by_index[dst].bridge.submit_put(key, value, "migrate")

        async def delete(src: int, key: str) -> None:
            if src in self._by_index:
                await self._by_index[src].bridge.submit_delete(key, "migrate")

        async def close() -> None:
            pass

        return scan, put, delete, close

    def _register_shard(self, shard: RackShard) -> None:
        self.shards.append(shard)
        self._by_index[shard.index] = shard
        self._gc_views[shard.index] = tuple(
            False for _ in range(shard.num_pairs)
        )
        # The new shard's pump flushes like every incumbent's does.
        shard.bridge.after_chunk = self._flush_soon

    def _deregister_shard(self, shard: RackShard) -> None:
        self.shards = [s for s in self.shards if s.index != shard.index]
        self._by_index.pop(shard.index, None)
        self._gc_views.pop(shard.index, None)

    async def admit_rack(self, config: Optional[RackConfig] = None,
                         **knobs: Any) -> Dict[str, Any]:
        """Admit a new rack shard under live load.

        Builds rack ``max(index) + 1`` from the fleet's construction
        recipe (seed and fault-schedule slice derived exactly as
        :func:`build_shard_configs` would have), registers it, and hands
        the plan to :func:`~repro.service.migration.run_membership_change`
        (``knobs`` are its ``batch_size``/``pause_s``/``max_attempts``/
        ``retry_backoff_s``): the moving ~1/(N+1) of keys stream over
        while reads stay on the old owner and writes are forwarded, then
        the epoch cuts over.  If the change aborts, the new shard
        is torn down and the fleet is exactly as before.
        """
        base = config if config is not None else self._base_config
        if base is None:
            raise MembershipError(
                "this router was not built via from_config; pass an "
                "explicit RackConfig to admit_rack"
            )
        index = max(self._by_index) + 1
        plan = self.fleet.begin_add(index)
        schedule = base.fault_schedule
        if schedule is not None:
            schedule = schedule.for_rack(index)
        shard_config = dataclasses.replace(
            base, seed=base.seed + index, fault_schedule=schedule,
        )
        bridge = SimTimeBridge(shard_config,
                               precondition=self._precondition,
                               **self._bridge_kwargs)
        shard = RackShard(index, bridge,
                          AdmissionController(**self._admission_kwargs))
        try:
            await shard.start()
            self._register_shard(shard)
        except BaseException:
            self.fleet.abort()
            raise
        try:
            return await run_membership_change(
                self.fleet, plan, self._stream_endpoints,
                read_cache=self.read_cache, **knobs,
            )
        except MembershipError:
            self._deregister_shard(shard)
            await shard.stop(drain=False)
            raise

    async def drain_rack(self, index: int, *, drain_timeout_s: float = 10.0,
                         **knobs: Any) -> Dict[str, Any]:
        """Drain rack ``index`` out of the fleet under live load.

        Streams its keys to their new owners (the rack keeps serving --
        and keeps taking forwarded writes -- until the cutover), commits
        the epoch bump, then stops the shard with a graceful drain.  A
        rack that is already crashed drains through its own replica
        fail-over path; if even that cannot complete, the plan aborts
        and the rack simply stays a member.  ``knobs`` as for
        :meth:`admit_rack`.
        """
        index = int(index)
        if index not in self._by_index:
            raise MembershipError(f"rack {index} is not part of this fleet")
        plan = self.fleet.begin_drain(index)
        shard = self._by_index[index]
        report = await run_membership_change(
            self.fleet, plan, self._stream_endpoints,
            read_cache=self.read_cache, **knobs,
        )
        self._deregister_shard(shard)
        await shard.stop(drain=True, drain_timeout_s=drain_timeout_s)
        return report

    # --------------------------------------------------------- construction

    @classmethod
    def from_config(cls, config: RackConfig, racks: int, *,
                    vnodes: int = DEFAULT_VNODES,
                    ring_seed: int = DEFAULT_RING_SEED,
                    gc_sync_s: float = DEFAULT_GC_SYNC_S,
                    read_policy: str = POLICY_HASH,
                    stale_after_s: float = DEFAULT_STALE_AFTER_S,
                    routing_trace=None,
                    queue_depth: int = 256,
                    client_rate_per_sec: float = 0.0,
                    client_burst: float = 64.0,
                    precondition: bool = True,
                    **bridge_kwargs: Any) -> "ShardRouter":
        """Build N shards from one base config (seeds and fault schedules
        derived per rack by :func:`build_shard_configs`)."""
        admission_kwargs = dict(
            max_queue_depth=queue_depth,
            client_rate_per_sec=client_rate_per_sec,
            client_burst=client_burst,
        )
        shards = []
        for index, shard_config in enumerate(
                build_shard_configs(config, racks)):
            bridge = SimTimeBridge(shard_config, precondition=precondition,
                                   **bridge_kwargs)
            shards.append(RackShard(index, bridge,
                                    AdmissionController(**admission_kwargs)))
        router = cls(shards, vnodes=vnodes, ring_seed=ring_seed,
                     gc_sync_s=gc_sync_s, read_policy=read_policy,
                     stale_after_s=stale_after_s,
                     routing_trace=routing_trace)
        # Remember the recipe so ``admit_rack`` can build rack N+1 the
        # same way this fleet was built.
        router._base_config = config
        router._precondition = precondition
        router._bridge_kwargs = dict(bridge_kwargs)
        router._admission_kwargs = admission_kwargs
        return router


class ShardedRackService(RackService):
    """N racks behind one listener: the in-process sharded front-end."""

    def __init__(self, router: ShardRouter, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
                 qos: Optional[QosScheduler] = None,
                 read_cache: Optional[ReadCache] = None,
                 ) -> None:
        super().__init__(
            router.shards[0].bridge.rack.config, host, port,
            bridge=router,  # the router speaks the bridge surface
            max_frame_bytes=max_frame_bytes,
            qos=qos, read_cache=read_cache,
        )
        self.router = router
        # The router invalidates on stream writes and fences at commits.
        router.read_cache = read_cache

    def _capabilities(self) -> List[str]:
        return super()._capabilities() + ["sharded"]

    def _hello_fields(self) -> Dict[str, Any]:
        fields = super()._hello_fields()
        fields["racks"] = len(self.router.shards)
        # Advertised only when active: hash mode stays byte-identical.
        if self.router.selector is not None:
            fields["read_policy"] = self.router.read_policy
        return fields

    def _admit(self, client: str, request: Dict[str, Any]) -> bool:
        return self.router.try_admit(client, request)

    def _current_epoch(self) -> int:
        return self.router.fleet.epoch

    def _fleet_status(self) -> Dict[str, Any]:
        return self.router.fleet.status()

    def _admin_mutation(self, op: str, request: Dict[str, Any],
                        knobs: Dict[str, Any]) -> Optional[Any]:
        if op == "add_rack":
            return self.router.admit_rack(**knobs)
        if op == "drain_rack":
            return self.router.drain_rack(int(request["rack"]), **knobs)
        return None

    def _stats_payload(self) -> Dict[str, Any]:
        router = self.router
        return schema.assemble_fleet_stats(
            {str(shard.index): shard.stats_section()
             for shard in router.shards},
            router.router_section(), router.fleet.stats_section(),
            self.connections_accepted,
            routing=_routing_section(router.selector, router.load_view,
                                     [shard.index for shard in router.shards]),
            **self.door.stats_sections(),
        )


# --------------------------------------------------------------------------
# Multi-process mode: a relay proxy over one backend serve process per rack.
# --------------------------------------------------------------------------

_SERVING_RE = re.compile(r"\bon ([0-9.]+):(\d+)\s*$")

#: Binary opcode -> request type, for the front door.
_BIN_RTYPE = {
    protocol.OP_READ: "read", protocol.OP_WRITE: "write",
    protocol.OP_GET: "get", protocol.OP_PUT: "put",
}


class ProxyLoadView:
    """The multi-process proxy's load view, measured at the relay.

    The proxy has no sim-time or switch-state channel, so both signals
    are wall-clock facts of its own links: depth counts frames forwarded
    to a backend and not yet answered (summed across every client's
    link), and the EWMA blends the turnaround of every matched response
    -- reads and writes alike, since the relay never decodes response
    bodies and both measure how backed-up a backend is.  A backend that
    has answered nothing yet reads as stale, which the selector resolves
    to strict hash order.
    """

    def __init__(self, proxy: "ShardProxy", *,
                 ewma_alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        self._proxy = proxy
        self.ewma_alpha = float(ewma_alpha)
        self._depth: Dict[int, int] = {}
        self._ewma: Dict[int, float] = {}
        self._seen: Dict[int, float] = {}

    def sent(self, node: int) -> None:
        self._depth[node] = self._depth.get(node, 0) + 1

    def done(self, node: int, latency_us: float) -> None:
        self._depth[node] = max(0, self._depth.get(node, 0) - 1)
        _blend(self._ewma, node, latency_us, self.ewma_alpha)
        self._seen[node] = time.monotonic()

    def lost(self, node: int, count: int) -> None:
        """A link died with ``count`` frames unanswered."""
        self._depth[node] = max(0, self._depth.get(node, 0) - int(count))

    def replica(self, node: int) -> ReplicaStats:
        if not 0 <= node < len(self._proxy.backends) \
                or node in self._proxy.drained:
            return ReplicaStats(live=False, age_s=float("inf"))
        return _live_replica(self._proxy.fleet, node,
                             self._depth.get(node, 0), self._ewma, self._seen)


class _BackendLink:
    """One client's pipe to one backend: forward frames, relay responses.

    Responses are relayed at frame granularity via
    :class:`~repro.service.protocol.FrameSplitter` -- the body bytes are
    never re-encoded, only peeked for the ``id`` (a fixed-offset header
    read for binary frames, one ``json.loads`` for JSON) so the proxy
    can answer orphaned requests with a retryable ``TIMEOUT`` when a
    backend dies mid-flight.  All frames decoded from one socket read
    go back out as a single ``writelines`` call.
    """

    def __init__(self, node: int, client_writer: "asyncio.StreamWriter",
                 max_frame_bytes: int,
                 observer: Optional["ProxyLoadView"] = None,
                 on_response: Optional[Any] = None) -> None:
        self.node = node
        self.client_writer = client_writer
        self.max_frame_bytes = max_frame_bytes
        self.observer = observer
        #: QoS/cache completion hook (``(request_id, frame, latency_us)``,
        #: frame/latency ``None`` for orphans); ``None`` on plain relays.
        self.on_response = on_response
        self.reader: Optional["asyncio.StreamReader"] = None
        self.writer: Optional["asyncio.StreamWriter"] = None
        self.relay_task: Optional["asyncio.Task"] = None
        #: request id -> wall send time; the id's dual role: orphan
        #: detection (as before) and, with an observer attached, the
        #: per-backend depth/latency feed the p2c selector reads.
        self.inflight: Dict[Any, float] = {}
        self.relayed = 0
        self.dead = False

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        protocol.cap_reads(self.writer.transport)
        self.relay_task = asyncio.get_running_loop().create_task(
            self._relay()
        )

    def send_frames(self, frames: "List[Any]",
                    request_ids: "List[Any]") -> None:
        """Forward a batch of already-encoded frames in one write."""
        assert self.writer is not None
        now = time.monotonic()
        for request_id in request_ids:
            if request_id is not None:
                self.inflight[request_id] = now
                if self.observer is not None:
                    self.observer.sent(self.node)
        if not self.writer.is_closing():
            self.writer.writelines(frames)

    def _response_id(self, frame: Any) -> Any:
        try:
            return protocol.frame_request_id(frame)
        except protocol.FrameError:
            return None

    async def _relay(self) -> None:
        assert self.reader is not None
        splitter = protocol.FrameSplitter(self.max_frame_bytes)
        try:
            while True:
                data = await self.reader.read(protocol.READ_BYTES)
                if not data:
                    break
                batch = []
                for frame in splitter.feed(data):
                    response_id = self._response_id(frame)
                    if response_id is not None:
                        sent_at = self.inflight.pop(response_id, None)
                        if sent_at is not None:
                            latency_us = (time.monotonic() - sent_at) * 1e6
                            if self.observer is not None:
                                self.observer.done(self.node, latency_us)
                            if self.on_response is not None:
                                self.on_response(response_id, frame,
                                                 latency_us)
                    batch.append(frame)
                if batch and not self.client_writer.is_closing():
                    self.client_writer.writelines(batch)
                    self.relayed += len(batch)
        except (ConnectionResetError, BrokenPipeError, protocol.FrameError,
                asyncio.CancelledError):
            pass
        finally:
            self.dead = True
            # Orphans get a retryable TIMEOUT: the backend (or its rack)
            # died with their responses; other shards are untouched.
            if not self.client_writer.is_closing():
                for request_id in sorted(self.inflight, key=str):
                    self.client_writer.write(protocol.encode_frame(
                        protocol.error_response(
                            protocol.TIMEOUT,
                            f"backend rack {self.node} connection lost",
                            request_id,
                        )
                    ))
            if self.observer is not None and self.inflight:
                self.observer.lost(self.node, len(self.inflight))
            if self.on_response is not None:
                for request_id in list(self.inflight):
                    self.on_response(request_id, None, None)
            self.inflight.clear()

    async def close(self) -> None:
        self.dead = True
        if self.writer is not None:
            self.writer.close()
        if self.relay_task is not None:
            self.relay_task.cancel()
            try:
                await self.relay_task
            except asyncio.CancelledError:
                pass
            self.relay_task = None


class _ClientConn(frontdoor.Conn):
    """One proxy client connection: the front door's state plus the
    relay's -- the client socket, one link per backend dialed so far,
    the frames queued for each link by the current socket read, and the
    tickets of relayed requests still awaiting their response."""

    __slots__ = ("writer", "links", "batches", "pending", "hook")

    def __init__(self, writer: "asyncio.StreamWriter") -> None:
        super().__init__()
        self.writer = writer
        self.links: Dict[int, _BackendLink] = {}
        #: link -> (frames, request ids): every frame bound for the same
        #: backend inside one socket read goes out as one ``writelines``,
        #: preserving arrival order per link.
        self.batches: Dict[_BackendLink, Tuple[List[Any], List[Any]]] = {}
        self.pending: Dict[Any, frontdoor.Ticket] = {}
        #: The links' completion hook; ``None`` on a plain relay, which
        #: then never decodes a response.
        self.hook: Optional[Any] = None

    def reply(self, response: Dict[str, Any], binary: bool) -> None:
        """Immediate relay-side answer, in the request's codec."""
        if not self.writer.is_closing():
            self.writer.write(protocol.encode_frame_as(response, binary))

    def enqueue(self, link: _BackendLink, frame: Any,
                request_id: Any) -> None:
        batch = self.batches.get(link)
        if batch is None:
            batch = self.batches[link] = ([], [])
        batch[0].append(frame)
        batch[1].append(request_id)

    def flush(self) -> None:
        if not self.batches:
            return
        batches, self.batches = self.batches, {}
        for link, (frames, request_ids) in batches.items():
            if not link.dead:
                link.send_frames(frames, request_ids)


class ShardProxy:
    """Frame-level relay over one backend ``serve`` process per rack.

    JSON requests are decoded once (to route them and rewrite the global
    pair index to the backend's local index); binary (protocol v2)
    requests are routed *without decoding at all* -- the pair/key is
    read at its fixed offset and the only rewrite patches 4 bytes --
    and responses relay as raw frames in both directions (save a write
    to a moving key: :meth:`_forward`).  Admission, simulation, and
    draining all happen in the backends; the proxy adds only placement.
    GC-aware cross-rack fallback is an in-process-router feature -- the
    proxy has no switch-state channel -- so reads rely on the backends'
    own in-rack redirect (documented in ``docs/serving.md``), and scans
    go to the start-key owner only.
    """

    def __init__(self, backends: Sequence[Tuple[str, int]],
                 host: str = "127.0.0.1", port: int = 0, *,
                 pairs_per_rack: int,
                 vnodes: int = DEFAULT_VNODES,
                 ring_seed: int = DEFAULT_RING_SEED,
                 max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
                 read_policy: str = POLICY_HASH,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S,
                 routing_trace=None,
                 qos: Optional[QosScheduler] = None,
                 read_cache: Optional[ReadCache] = None,
                 ) -> None:
        if not backends:
            raise ConfigError("a proxy needs at least one backend")
        if pairs_per_rack < 1:
            raise ConfigError(
                f"pairs_per_rack must be >= 1, got {pairs_per_rack}"
            )
        if read_policy not in READ_POLICIES:
            raise ConfigError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {read_policy!r}"
            )
        self.backends = list(backends)
        self.host = host
        self.port = port
        self.pairs_per_rack = pairs_per_rack
        self.max_frame_bytes = max_frame_bytes
        #: Membership control plane (same object the in-proc router
        #: uses); the proxy's ring lives inside it.  Drained backends
        #: keep their ``backends`` slot -- indices stay stable -- they
        #: just leave the ring.
        self.fleet = FleetController(HashRing(
            range(len(self.backends)), vnodes=vnodes, seed=ring_seed,
        ))
        self.drained: Set[int] = set()
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connections: Set["asyncio.Task"] = set()
        #: Admin mutations and migration-window writes in flight, and the
        #: per-backend clients those writes ride (dialed on first use).
        self._tasks: Set["asyncio.Task"] = set()
        self._window_clients: Dict[Tuple[str, int], ServiceClient] = {}
        self._draining = False
        self.connections_accepted = 0
        self.routed = 0
        self.unroutable = 0
        #: Multi-tenant QoS + DRAM read cache, proxy flavour: the front
        #: door runs here (the backends keep their own per-client
        #: admission).  Both default off, keeping the plain relay
        #: byte-identical.
        self.read_cache = read_cache
        self.door = frontdoor.FrontDoor(
            qos, read_cache, epoch=lambda: self.fleet.epoch,
            describe=self._describe,
        )
        #: Load-aware read placement; ``None`` under hash policy, which
        #: keeps that mode's relay byte-identical.
        self.read_policy = read_policy
        self.load_view: Optional[ProxyLoadView] = None
        self.selector: Optional[ReplicaSelector] = None
        if read_policy == POLICY_P2C:
            self.load_view = ProxyLoadView(self)
            self.selector = ReplicaSelector(
                self.load_view, policy=read_policy,
                stale_after_s=stale_after_s, trace=routing_trace,
            )

    @property
    def ring(self) -> HashRing:
        """The *current* ring -- swapped atomically at membership commit."""
        return self.fleet.ring

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for client in self._window_clients.values():
            await client.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    # -------------------------------------------------------------- routing

    def _route(self, request: Dict[str, Any],
               ) -> Tuple[Optional[int], Optional[int]]:
        """``(node, forward)``: the backend a decoded request goes to
        (``None``: unroutable) -- a key's authoritative owner, the old
        one until a cutover -- and where :meth:`_forward` forwards a
        write to a moving key."""
        rtype = request.get("type")
        try:
            if rtype in ("read", "write"):
                global_pair = int(request["pair"])
                total = self.pairs_per_rack * len(self.ring)
                if not 0 <= global_pair < total:
                    raise ConfigError(
                        f"pair index {global_pair} out of range [0, {total})"
                    )
                node = self.ring.node_for(f"pair:{global_pair}")
                if rtype == "read" and self.selector is not None:
                    node = self._choose_read_node(global_pair, node)
                return node, None
            if rtype == "get":
                return self.fleet.read_owner(str(request["key"])), None
            if rtype in ("put", "del"):
                return self.fleet.write_route(str(request["key"]))
            if rtype == "scan":
                return self.fleet.read_owner(str(request.get("start", ""))), \
                    None
        except (KeyError, TypeError, ValueError, ConfigError):
            return None, None
        return None, None

    def _choose_read_node(self, global_pair: int, owner: int) -> int:
        """p2c over the pair's preference list (raw reads only).

        Every local pair index is ``global_pair % pairs_per_rack`` on
        any backend, so the divert needs no extra rewrite; the selector
        falls back to hash order -- ``owner`` -- whenever its view is
        not trustworthy.
        """
        assert self.selector is not None
        nodes = [
            node
            for node in self.ring.preference(f"pair:{global_pair}", count=2)
            if 0 <= node < len(self.backends) and node not in self.drained
        ]
        if not nodes:
            return owner
        plan = self.fleet.plan
        return self.selector.choose(
            f"pair:{global_pair}", nodes,
            migrating_node=plan.node if plan is not None else None,
            epoch=self.fleet.epoch,
        ).chosen

    # ---------------------------------------------------------- connections

    async def _handle_client(self, reader: "asyncio.StreamReader",
                             writer: "asyncio.StreamWriter") -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self.connections_accepted += 1
        conn = _ClientConn(writer)
        conn.hook = self._make_response_hook(conn)
        splitter = protocol.FrameSplitter(self.max_frame_bytes)
        protocol.cap_reads(writer.transport)
        try:
            while True:
                data = await reader.read(protocol.READ_BYTES)
                if not data:
                    break
                try:
                    for frame in splitter.feed(data):
                        if protocol.frame_is_binary(frame):
                            await self._begin_binary(frame, conn)
                        else:
                            await self._begin(protocol.decode_json_body(
                                bytes(frame[4:])), conn)
                except protocol.FrameError as exc:
                    conn.reply(protocol.error_response(
                        protocol.BAD_REQUEST, str(exc)), False)
                    conn.flush()
                    break
                conn.flush()
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            for link in conn.links.values():
                await link.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass
            if task is not None:
                self._connections.discard(task)

    async def _link_for(self, node: int, conn: _ClientConn,
                        request_id: Any, binary: bool,
                        ) -> Optional[_BackendLink]:
        """The live link to ``node``, dialing on first use; ``None`` (with
        the error already sent, in the request's codec) if unreachable."""
        link = conn.links.get(node)
        if link is None or link.dead:
            if link is not None:
                await link.close()
            link = _BackendLink(node, conn.writer, self.max_frame_bytes,
                                observer=self.load_view,
                                on_response=conn.hook)
            host, port = self.backends[node]
            try:
                await link.open(host, port)
            except (ConnectionError, OSError) as exc:
                conn.reply(protocol.error_response(
                    protocol.TIMEOUT,
                    f"backend rack {node} unreachable: {exc}", request_id,
                ), binary)
                return None
            conn.links[node] = link
        return link

    # ----------------------------------------------------------- front door

    def _describe(self) -> Tuple[List[str], Dict[str, Any]]:
        """``(capabilities, fields)`` of this proxy's ``hello`` answer."""
        fields: Dict[str, Any] = dict(
            racks=len(self.ring), epoch=self.fleet.epoch,
        )
        # Advertised only when active: hash mode stays byte-identical.
        if self.selector is not None:
            fields["read_policy"] = self.read_policy
        return ["raw", "kv", "sharded", "proxy", "bin"], fields

    def _decode(self, frame: Any) -> Optional[Dict[str, Any]]:
        """Decode one complete frame (either codec); None if bad."""
        try:
            messages = protocol.FrameDecoder(self.max_frame_bytes).feed(
                bytes(frame)
            )
        except protocol.FrameError:
            return None
        return messages[0] if messages else None

    def _make_response_hook(self, conn: _ClientConn) -> Optional[Any]:
        """The relay's completion hook for one client connection.

        ``None`` when the proxy runs without QoS and cache, so the plain
        relay never decodes a response body.  With either on, tracked
        responses pay one decode: the QoS ledger needs the ok bit and
        cache fills need the value; latency is the wall-clock turnaround
        measured at the relay, the only one the proxy can see.
        """
        if not self.door.tracks_completions:
            return None

        def hook(request_id: Any, frame: Any,
                 latency_us: Optional[float]) -> None:
            ticket = conn.pending.pop(request_id, None)
            if ticket is None:
                return
            response = (self._decode(frame)
                        if frame is not None else None)
            ok = response is not None and response.get("ok")
            ticket.complete(response if ok else None, latency_us)

        return hook

    async def _relay(self, conn: _ClientConn, ticket: frontdoor.Ticket,
                     frame: Any, request_id: Any, binary: bool,
                     node: int) -> None:
        """Queue an admitted request's frame for backend ``node`` and
        hold its ticket until the relay sees the response."""
        link = await self._link_for(node, conn, request_id, binary)
        if link is None:
            return
        self.routed += 1
        conn.enqueue(link, frame, request_id)
        if conn.hook is not None and request_id is not None:
            ticket.submitted()
            conn.pending[request_id] = ticket

    def _forward(self, conn: _ClientConn, ticket: frontdoor.Ticket,
                 request: Dict[str, Any], binary: bool) -> None:
        """A write to a moving key, decoded and run off the connection's
        read loop (rare: only moving keys, only during a change) through
        :func:`forwarded_write`.  Each leg is a request on that backend's
        window client under the caller's own ``client`` name (its address
        if it gave none), so backend admission still meters the caller;
        the answer goes back in the request's codec."""
        request_id = request.pop("id", None)
        request.pop("epoch", None)
        if not request.get("client"):
            peer = conn.writer.get_extra_info("peername")
            request["client"] = f"{peer[0]}:{peer[1]}" if peer else "unknown"

        async def apply(node: int) -> Dict[str, Any]:
            client = await _dial(self._window_clients, self.backends[node])
            return await client.request(request)

        async def write() -> None:
            self.routed += 1
            ticket.submitted()
            started = time.monotonic()
            try:
                response = dict(await forwarded_write(
                    self.fleet, str(request["key"]), apply), id=request_id)
            except ServiceError as exc:
                response = protocol.error_response(exc.code, exc.message,
                                                   request_id)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                response = protocol.error_response(
                    protocol.TIMEOUT, f"backend rack unreachable: {exc}",
                    request_id)
            ticket.complete(response if response["ok"] else None,
                            (time.monotonic() - started) * 1e6)
            conn.reply(response, binary)

        task = asyncio.ensure_future(write())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _begin_binary(self, frame: Any, conn: _ClientConn) -> None:
        """Route one binary frame without decoding it.

        The pair/key routing fact sits at a fixed offset
        (:func:`~repro.service.protocol.bin_frame_route`), and the only
        rewrite -- global to rack-local pair index -- patches 4 bytes in
        place (:func:`~repro.service.protocol.rewrite_bin_pair`).  Key
        ops relay the splitter's memoryview untouched.  The front door
        sees only the facts peeked here.
        """
        request_id = protocol.frame_request_id(frame)
        try:
            route = protocol.bin_frame_route(frame)
        except protocol.FrameError as exc:
            self.unroutable += 1
            conn.reply(protocol.error_response(
                protocol.BAD_REQUEST, f"malformed binary frame: {exc}",
                request_id,
            ), True)
            return
        if route is None:
            self.unroutable += 1
            conn.reply(protocol.error_response(
                protocol.BAD_REQUEST,
                f"unroutable binary opcode 0x{frame[1]:02x}", request_id,
            ), True)
            return
        kind, value = route
        ticket = self.door.admit(
            {"type": _BIN_RTYPE[frame[1]], "id": request_id,
             "key": value if kind == "key" else None},
            conn, self._draining,
        )
        if ticket.__class__ is dict:
            conn.reply(ticket, True)
            return
        if kind == "pair":
            total = self.pairs_per_rack * len(self.ring)
            if not 0 <= value < total:
                self.unroutable += 1
                conn.reply(protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"pair index {value} out of range [0, {total})",
                    request_id,
                ), True)
                return
            node = self.ring.node_for(f"pair:{value}")
            if self.selector is not None and frame[1] == protocol.OP_READ:
                node = self._choose_read_node(value, node)
            frame = protocol.rewrite_bin_pair(
                frame, value % self.pairs_per_rack
            )
        else:
            node, forward = self.fleet.write_route(value)
            if forward is not None and frame[1] == protocol.OP_PUT:
                request = self._decode(frame)
                if request is not None:  # else the owner answers it
                    self._forward(conn, ticket, request, True)
                    return
        await self._relay(conn, ticket, frame, request_id, True, node)

    async def _begin(self, request: Dict[str, Any],
                     conn: _ClientConn) -> None:
        ticket = self.door.admit(request, conn, self._draining)
        if ticket.__class__ is dict:
            conn.reply(ticket, False)
            return
        request_id = request.get("id")
        if ticket is frontdoor.STATS:
            try:
                response = protocol.ok_response(
                    request_id, **(await self._gather_stats())
                )
            except (ConnectionError, OSError, protocol.FrameError,
                    ConfigError) as exc:  # ConfigError: a malformed histogram
                response = protocol.error_response(
                    protocol.INTERNAL, f"stats gather failed: {exc}",
                    request_id,
                )
            conn.reply(response, False)
            return
        if ticket is frontdoor.ADMIN:
            self._begin_admin(request, conn)
            return
        rtype = request.get("type")
        node, forward = self._route(request)
        if forward is not None:
            self._forward(conn, ticket, request, False)
            return
        if node is None:
            self.unroutable += 1
            conn.reply(protocol.error_response(
                protocol.BAD_REQUEST,
                f"unroutable request type {rtype!r}", request_id,
            ), False)
            return
        out_request = dict(request)
        # The epoch gate is the proxy's: backend processes are fixed
        # single racks pinned at epoch 0 and would reject the fleet's.
        out_request.pop("epoch", None)
        if rtype in ("read", "write"):
            out_request["pair"] = int(request["pair"]) % self.pairs_per_rack
        await self._relay(conn, ticket, protocol.encode_frame(out_request),
                          request_id, False, node)

    # ----------------------------------------------------------- membership

    def _begin_admin(self, request: Dict[str, Any],
                     conn: _ClientConn) -> None:
        """In-band fleet administration, proxy flavour.

        ``status`` answers immediately; ``add_rack`` admits an
        *already-running* backend ``serve`` process (the proxy does not
        spawn processes -- the operator starts it and hands its
        ``host``/``port`` here) and ``drain_rack`` streams a backend's
        keys out, after which the operator may stop the process.  Both
        run as background tasks so foreground frames keep relaying.
        """
        pending = frontdoor.begin_admin(request, self._fleet_status,
                                        self._admin_mutation)
        if pending.__class__ is dict:
            conn.reply(pending, False)
            return
        request_id = request.get("id")
        task = asyncio.ensure_future(pending)
        self._tasks.add(task)

        def _respond(done: "asyncio.Task") -> None:
            self._tasks.discard(done)
            conn.reply(frontdoor.admin_outcome(done, request_id), False)

        task.add_done_callback(_respond)

    def _fleet_status(self) -> Dict[str, Any]:
        status = self.fleet.status()
        status["drained"] = sorted(self.drained)
        return status

    def _admin_mutation(self, op: str, request: Dict[str, Any],
                        knobs: Dict[str, Any]) -> Optional[Any]:
        if op == "add_rack":
            return self._admin_add_rack(request, knobs)
        if op == "drain_rack":
            return self._admin_drain_rack(int(request["rack"]), knobs)
        return None

    def _wire_endpoints(self):
        """Wire-level ``(scan, put, delete, close)`` for the migration
        stream: one :class:`~repro.service.client.ServiceClient` per
        involved backend under the ``migrate`` client name, dialed
        lazily."""
        clients: Dict[Tuple[str, int], ServiceClient] = {}

        def client_for(node: int) -> Any:
            return _dial(clients, self.backends[node], "migrate")

        async def scan(src: int, start: str, count: int):
            result = await (await client_for(src)).scan(start, count)
            return [(key, value) for key, value in result["items"]]

        async def put(dst: int, key: str, value: str) -> None:
            await (await client_for(dst)).put(key, value)

        async def delete(src: int, key: str) -> None:
            if 0 <= src < len(self.backends) and src not in self.drained:
                await (await client_for(src)).delete(key)

        async def close() -> None:
            for client in clients.values():
                await client.close()
            clients.clear()

        return scan, put, delete, close

    async def _admin_add_rack(self, request: Dict[str, Any],
                              knobs: Dict[str, Any]) -> Dict[str, Any]:
        if "port" not in request:
            raise ConfigError(
                "add_rack via the proxy needs the new backend's host/port "
                "(start its serve process first)"
            )
        host = str(request.get("host", "127.0.0.1"))
        port = int(request["port"])
        node = len(self.backends)
        plan = self.fleet.begin_add(node)
        self.backends.append((host, port))
        try:
            return await run_membership_change(
                self.fleet, plan, self._wire_endpoints,
                read_cache=self.read_cache, **knobs,
            )
        except MembershipError:
            self.backends.pop()
            raise

    async def _admin_drain_rack(self, node: int,
                                knobs: Dict[str, Any]) -> Dict[str, Any]:
        if not 0 <= node < len(self.backends) or node in self.drained:
            raise ConfigError(f"rack {node} is not a live backend")
        plan = self.fleet.begin_drain(node)
        report = await run_membership_change(
            self.fleet, plan, self._wire_endpoints,
            read_cache=self.read_cache, **knobs,
        )
        # The slot stays (indices must remain stable); the backend just
        # left the ring.  The operator stops the process at leisure.
        self.drained.add(node)
        return report

    # ------------------------------------------------------------ reporting

    async def _gather_stats(self) -> Dict[str, Any]:
        """Scatter ``stats`` to every backend and fold the results."""
        sections: Dict[str, Dict[str, Any]] = {}
        for node, (host, port) in enumerate(self.backends):
            if node in self.drained:
                continue
            reader, writer = await asyncio.open_connection(host, port)
            try:
                protocol.write_frame(writer, {"type": "stats", "id": 0})
                response = await protocol.read_frame(
                    reader, self.max_frame_bytes
                )
            finally:
                writer.close()
            if response is None or not response.get("ok"):
                raise ConnectionError(f"backend rack {node} stats failed")
            sections[str(node)] = {
                key: response[key]
                for key in (schema.SECTION_BRIDGE, schema.SECTION_METRICS,
                            schema.SECTION_HISTOGRAMS,
                            schema.SECTION_KVSTORE, schema.SECTION_ADMISSION,
                            schema.SECTION_CHAOS)
                if key in response
            }
        return schema.assemble_fleet_stats(
            sections, {
                "racks": float(len(self.ring)),
                "virtual_nodes": float(self.ring.vnodes),
                "routed": float(self.routed),
                "cross_rack_redirects": 0.0,
                "scatter_scans": 0.0,
                "scan_reasks": 0.0,
                "unroutable": float(self.unroutable),
                "gc_view_commits": 0.0,
                "epoch": float(self.fleet.epoch),
            }, self.fleet.stats_section(), self.connections_accepted,
            routing=_routing_section(
                self.selector, self.load_view,
                [node for node in range(len(self.backends))
                 if node not in self.drained]),
            **self.door.stats_sections(),
        )


async def _dial(clients: Dict[Tuple[str, int], ServiceClient],
                endpoint: Tuple[str, int],
                name: Optional[str] = None) -> ServiceClient:
    """``clients[endpoint]``, connected on first use under ``name``."""
    client = clients.get(endpoint)
    if client is None:
        client = await ServiceClient(*endpoint, name).connect()
        if endpoint in clients:  # a concurrent dial got there first
            await client.close()
            return clients[endpoint]
        clients[endpoint] = client
    return client


# --------------------------------------------------------------------------
# Backend process management (used by `repro.cli serve --shard-mode process`
# and the scaling benchmark).
# --------------------------------------------------------------------------


async def launch_backends(
    racks: int, backend_args: Sequence[str], *, seed: int,
    startup_timeout_s: float = 60.0,
) -> Tuple[List["asyncio.subprocess.Process"], List[Tuple[str, int]]]:
    """Spawn one ``repro.cli serve`` process per rack.

    ``backend_args`` is everything after ``serve`` except ``--port`` and
    ``--seed``, which are set here (an ephemeral port each; seed
    ``seed + rack``, the same derivation :func:`build_shard_configs`
    uses).  Returns the processes plus their ``(host, port)`` endpoints,
    parsed from each child's "serving ... on host:port" line.
    """
    import os
    import pathlib
    import sys

    import repro

    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    procs: List["asyncio.subprocess.Process"] = []
    endpoints: List[Tuple[str, int]] = []
    try:
        for rack in range(racks):
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--seed", str(seed + rack),
                *backend_args,
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.STDOUT,
                env=env,
            )
            procs.append(proc)
        for rack, proc in enumerate(procs):
            assert proc.stdout is not None
            deadline = asyncio.get_running_loop().time() + startup_timeout_s
            while True:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    raise ConfigError(
                        f"backend rack {rack} did not report a port within "
                        f"{startup_timeout_s:.0f}s"
                    )
                line = await asyncio.wait_for(proc.stdout.readline(),
                                              timeout=remaining)
                if not line:
                    raise ConfigError(
                        f"backend rack {rack} exited before serving "
                        f"(exit code {proc.returncode})"
                    )
                match = _SERVING_RE.search(line.decode("utf-8", "replace"))
                if match:
                    endpoints.append((match.group(1), int(match.group(2))))
                    break
    except BaseException:
        await shutdown_backends(procs)
        raise
    return procs, endpoints


async def shutdown_backends(
    procs: Sequence["asyncio.subprocess.Process"],
    timeout_s: float = 15.0,
) -> None:
    """SIGTERM every backend (graceful drain) and reap it."""
    import signal

    for proc in procs:
        if proc.returncode is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
    for proc in procs:
        if proc.returncode is None:
            try:
                await asyncio.wait_for(proc.wait(), timeout=timeout_s)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
