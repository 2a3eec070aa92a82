"""The in-process shard router: placement, fallback, and aggregation.

These tests drive :class:`ShardRouter` directly (no TCP) so every
routing decision is observable: which shard's bridge a request landed
on, what the response's ``rack`` tag says, and how the per-shard and
aggregate counters move.
"""

import asyncio
import random

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.errors import ConfigError
from repro.service.router import (
    ShardedRackService,
    ShardRouter,
    build_shard_configs,
)
from repro.service.shard import HashRing

from tests import stats_schema

pytestmark = pytest.mark.shard

MS = 1000.0


def base_config(**overrides) -> RackConfig:
    defaults = dict(
        system=SystemType("rackblox"), num_servers=2, num_pairs=2, seed=11,
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


def make_router(racks=3, **kwargs) -> ShardRouter:
    kwargs.setdefault("gc_sync_s", 0.0)  # view moves only when tests say so
    kwargs.setdefault("precondition", False)
    kwargs.setdefault("chunk_us", 2000.0)
    return ShardRouter.from_config(base_config(), racks, **kwargs)


def run(coro):
    return asyncio.run(coro)


def fleet_stats(router: ShardRouter):
    """The in-proc fleet's ``stats`` body, as its service answers it."""
    return ShardedRackService(router)._stats_payload()


class TestBuildShardConfigs:
    def test_single_rack_is_the_base_config_untouched(self):
        config = base_config()
        assert build_shard_configs(config, 1) == [config]
        assert build_shard_configs(config, 1)[0] is config

    def test_each_rack_gets_a_distinct_seed(self):
        configs = build_shard_configs(base_config(seed=100), 3)
        assert [c.seed for c in configs] == [100, 101, 102]
        assert all(c.num_pairs == 2 for c in configs)

    def test_fault_schedule_sliced_per_rack(self):
        schedule = FaultSchedule(events=(
            FaultEvent(1.0 * MS, "server_crash", "server:0", rack=1),
            FaultEvent(2.0 * MS, "server_crash", "server:1"),  # broadcast
        ))
        configs = build_shard_configs(base_config(fault_schedule=schedule), 3)
        assert [len(c.fault_schedule.events) for c in configs] == [1, 2, 1]
        assert configs[1].fault_schedule.events[0].target == "server:0"

    def test_zero_racks_rejected(self):
        with pytest.raises(ConfigError):
            build_shard_configs(base_config(), 0)


class TestPlacement:
    def test_routing_matches_the_public_ring(self):
        # The router's placement is exactly HashRing over "pair:g" /
        # "key:k" labels -- an external client can predict it.
        async def scenario():
            router = make_router(racks=3)
            ring = HashRing(range(3))
            await router.start()
            try:
                landed = {}
                for g in range(router.total_pairs):
                    result = await router.submit_write(g, lpn=1)
                    landed[g] = result["rack"]
                return landed, {g: ring.node_for(f"pair:{g}")
                                for g in range(router.total_pairs)}
            finally:
                await router.stop()

        landed, predicted = run(scenario())
        assert landed == predicted

    def test_kv_routing_matches_the_ring_too(self):
        async def scenario():
            router = make_router(racks=3)
            ring = HashRing(range(3))
            await router.start()
            try:
                out = {}
                for i in range(12):
                    key = f"k{i:08d}"
                    result = await router.submit_put(key, "v")
                    out[key] = (result["rack"], ring.node_for(f"key:{key}"))
                return out
            finally:
                await router.stop()

        for key, (landed, predicted) in run(scenario()).items():
            assert landed == predicted, key

    def test_out_of_range_pair_rejected(self):
        async def scenario():
            router = make_router(racks=2)  # 4 global pairs
            await router.start()
            try:
                with pytest.raises(ConfigError, match="out of range"):
                    router.submit_read(4, 0)
                with pytest.raises(ConfigError):
                    router.submit_write(-1, 0)
            finally:
                await router.stop()

        run(scenario())

    def test_every_shard_simulates_independently(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                for g in range(router.total_pairs):
                    await router.submit_write(g, lpn=g)
                return [s.bridge.stats().submitted for s in router.shards]
            finally:
                await router.stop()

        submitted = run(scenario())
        assert sum(submitted) == 6
        assert all(count > 0 for count in submitted)


class TestScatterGatherScan:
    def test_scan_merges_sorted_across_all_shards(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                keys = [f"k{i:04d}" for i in range(24)]
                for key in keys:
                    await router.submit_put(key, f"v-{key}")
                # Keys hash-spread over the shards; a single-shard scan
                # could never see them all.
                per_shard = [len(s.bridge.kv) for s in router.shards]
                result = await router.submit_scan("", count=10)
                return keys, per_shard, result
            finally:
                await router.stop()

        keys, per_shard, result = run(scenario())
        assert all(count > 0 for count in per_shard)
        scanned = [key for key, _ in result["items"]]
        assert scanned == sorted(keys)[:10]
        assert result["racks"] == 3
        assert result["count"] == 10
        assert result["latency_us"] > 0

    def test_scan_respects_start_key(self):
        async def scenario():
            router = make_router(racks=2)
            await router.start()
            try:
                for i in range(12):
                    await router.submit_put(f"k{i:04d}", "v")
                return await router.submit_scan("k0006", count=100)
            finally:
                await router.stop()

        result = run(scenario())
        assert [k for k, _ in result["items"]] == [
            f"k{i:04d}" for i in range(6, 12)
        ]


def plant(router, key, value="v", on=None):
    """Store ``key`` on its owner (or on shard ``on``: a shadow copy)
    without paying a simulated write per key."""
    shard = router.shard_for_key(key) if on is None else router._by_index[on]
    shard.bridge.kv._set(key, value)


async def exhaustive_scan(router, start, count):
    """The scatter as it was before the per-leg limit: every shard is
    asked for ``count``, one round.  The reference the trimmed scatter
    must match."""
    legs = await asyncio.gather(*(
        shard.bridge.submit_scan(start, count) for shard in router.shards
    ))
    return sorted(
        [key, value]
        for shard, leg in zip(router.shards, legs)
        for key, value in leg["items"]
        if router.fleet.read_owner(key) == shard.index
    )[:count]


def spy_on_legs(router):
    """Record every leg the router asks for as ``(round, rack, start,
    limit, future)``; a round begins once every earlier leg is done."""
    asked = []

    def wrap(shard):
        inner = shard.bridge.submit_scan

        def submit_scan(start, limit, client="live"):
            fresh = all(leg[-1].done() for leg in asked)
            round_ = (asked[-1][0] + fresh) if asked else 0
            future = inner(start, limit, client)
            asked.append((round_, shard.index, start, limit, future))
            return future

        shard.bridge.submit_scan = submit_scan

    for shard in router.shards:
        wrap(shard)
    return asked


class TestTrimmedScatter:
    """Each shard is asked for twice its share and asked again only
    while it may hold more of the answer: same answer, fewer reads."""

    @pytest.mark.parametrize("racks", [1, 2, 4])
    def test_matches_the_exhaustive_scatter(self, racks):
        async def scenario():
            router = make_router(racks=racks)
            await router.start()
            try:
                rng = random.Random(racks)
                mismatches = []
                for population in (0, 5, 40, 150):
                    for shard in router.shards:
                        kv = shard.bridge.kv
                        for key in list(kv._keys):
                            kv._drop(key)
                    for i in rng.sample(range(1000), population):
                        plant(router, f"k{i:04d}", f"v{i}")
                    for count in (1, 3, 10, 25, 64):
                        for start in ("", f"k{rng.randrange(1000):04d}", "z"):
                            got = await router.submit_scan(start, count)
                            want = await exhaustive_scan(router, start, count)
                            assert got["count"] == len(got["items"])
                            assert got["racks"] == racks
                            if got["items"] != want:
                                mismatches.append((population, count, start))
                return mismatches
            finally:
                await router.stop()

        assert run(scenario()) == []

    def test_one_shard_owning_the_answer_is_asked_again(self):
        async def scenario():
            router = make_router(racks=4)
            await router.start()
            try:
                # Every low key on one rack, the other racks hold only
                # keys above them.
                low, high = [], []
                for i in range(2000):
                    owner = router.fleet.read_owner(f"a{i:04d}")
                    if owner == 0 and len(low) < 40:
                        low.append(f"a{i:04d}")
                    elif owner != 0 and len(high) < 40:
                        high.append(f"z{i:04d}")
                for key in low + high:
                    plant(router, key)
                asked = spy_on_legs(router)
                before = router.scan_reasks
                result = await router.submit_scan("", 25)
                asked = list(asked)  # the reference scan is spied on too
                want = await exhaustive_scan(router, "", 25)
                return result, want, asked, router.scan_reasks - before, low
            finally:
                await router.stop()

        result, want, asked, reasks, low = run(scenario())
        assert result["items"] == want
        assert [k for k, _ in result["items"]] == low[:25]
        # limit = 2 * ceil(25 / 4) = 14: rack 0 alone is asked again,
        # from just past the last key it returned.
        first = [leg for leg in asked if leg[0] == 0]
        second = [leg for leg in asked if leg[0] == 1]
        assert sorted(leg[1] for leg in first) == [0, 1, 2, 3]
        assert [(rack, start, limit) for _, rack, start, limit, _ in second] \
            == [(0, low[13] + "\x00", 14)]
        assert all(leg[3] == 14 for leg in asked) and len(asked) == 5
        assert reasks == 1
        assert result["latency_us"] == pytest.approx(sum(
            max(leg[-1].result()["latency_us"]
                for leg in asked if leg[0] == round_)
            for round_ in (0, 1)
        ))

    def test_shadow_copies_are_filtered_and_their_shard_asked_again(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                keys = [f"k{i:04d}" for i in range(60)]
                for key in keys:
                    plant(router, key, "owned")
                out = {}
                # A drain window: writes to moving keys are forwarded,
                # so the destinations hold copies that are not theirs
                # to report until cutover.
                plan = router.fleet.begin_drain(0)
                moving = [k for k in keys
                          if plan.moving_range_for_key(k) is not None]
                for key in moving:
                    await router.submit_put(key, "owned")
                out["window"] = (
                    await router.submit_scan("", 10),
                    await exhaustive_scan(router, "", 10),
                )
                # After the abort the copies linger on the non-owners.
                router.fleet.abort()
                out["aborted"] = (
                    await router.submit_scan("k0020", 25),
                    await exhaustive_scan(router, "k0020", 25),
                )
                # Shadows below every owned key fill rack 1's whole leg
                # (limit 2): all filtered, and rack 1 is asked again.
                for i in range(2):
                    plant(router, f"a{i}", "shadow", on=1)
                assert all(router.fleet.read_owner(f"a{i}") != 1
                           for i in range(2))
                before = router.scan_reasks
                out["filled"] = (
                    await router.submit_scan("", 3),
                    await exhaustive_scan(router, "", 3),
                )
                return out, moving, router.scan_reasks - before
            finally:
                await router.stop()

        out, moving, reasks = run(scenario())
        assert len(moving) > 5
        for got, want in out.values():
            assert got["items"] == want
            assert all(value == "owned" for _, value in got["items"])
        assert [k for k, _ in out["window"][0]["items"]] == [
            f"k{i:04d}" for i in range(10)
        ]
        assert reasks >= 1

    def test_a_failing_leg_fails_the_scan_once(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            loop = asyncio.get_running_loop()
            stray = []
            loop.set_exception_handler(lambda _, ctx: stray.append(ctx))
            try:
                for i in range(12):
                    plant(router, f"k{i:04d}")
                for shard in router.shards[1:]:  # two legs fail
                    def broken(start, limit, client="live"):
                        fut = loop.create_future()
                        loop.call_soon(fut.set_exception,
                                       RuntimeError("leg down"))
                        return fut
                    shard.bridge.submit_scan = broken
                with pytest.raises(RuntimeError, match="leg down"):
                    await router.submit_scan("", 5)
                await asyncio.sleep(0.01)
                return stray
            finally:
                await router.stop()

        assert run(scenario()) == []

    def test_cancelling_the_scan_cancels_the_round_in_flight(self):
        async def scenario():
            router = make_router(racks=4)  # never started: legs by hand
            loop = asyncio.get_running_loop()
            legs = []
            for shard in router.shards:
                def by_hand(start, limit, client="live", rack=shard.index):
                    legs.append((rack, start, loop.create_future()))
                    return legs[-1][-1]
                shard.bridge.submit_scan = by_hand
            own = [k for k in (f"k{i:04d}" for i in range(100))
                   if router.fleet.read_owner(k) == 0]
            outer = router.submit_scan("", 4)  # limit 2
            # Rack 0 fills its leg, the others hold nothing: the merge
            # is short, so rack 0 is asked again.
            for rack, _, fut in list(legs):
                keys = own[:2] if rack == 0 else []
                fut.set_result({"items": [[k, "v"] for k in keys],
                                "count": len(keys), "latency_us": 1.0})
            await asyncio.sleep(0)
            assert [(rack, start) for rack, start, _ in legs[4:]] \
                == [(0, own[1] + "\x00")]
            outer.cancel()
            await asyncio.sleep(0)
            return [fut.cancelled() for _, _, fut in legs]

        assert run(scenario()) == [False] * 4 + [True]


    def test_a_shard_drained_away_mid_scan_is_not_asked_again(self):
        async def scenario():
            router = make_router(racks=4)  # never started: legs by hand
            loop = asyncio.get_running_loop()
            legs = []
            for shard in router.shards:
                def by_hand(start, limit, client="live", rack=shard.index):
                    legs.append((rack, start, limit, loop.create_future()))
                    return legs[-1][-1]
                shard.bridge.submit_scan = by_hand
            moved = [k for k in (f"k{i:04d}" for i in range(100))
                     if router.fleet.read_owner(k) == 3][:2]
            outer = router.submit_scan("", 4)  # limit 2, round 0 is out
            # Rack 3 leaves while its leg is out: the cutover hands its
            # keys to the survivors, which hold streamed copies.
            router.fleet.begin_drain(3)
            router.fleet.commit()
            router._deregister_shard(router.shards[3])
            holds = {rack: [] for rack in range(4)}
            holds[3] = list(moved)  # not cleaned up yet
            for key in moved:
                assert router.fleet.read_owner(key) != 3
                holds[router.fleet.read_owner(key)].append(key)
            answered = 0
            while not outer.done():
                for rack, start, limit, fut in legs[answered:]:
                    keys = [k for k in holds[rack] if k >= start][:limit]
                    fut.set_result({"items": [[k, f"from{rack}"] for k in keys],
                                    "count": len(keys), "latency_us": 1.0})
                answered = len(legs)
                await asyncio.sleep(0)
            return outer.result(), moved, [rack for rack, *_ in legs[4:]]

        result, moved, asked_again = run(scenario())
        # Rack 3's leg came back full while the merge was short: were it
        # still a member it would be asked again.  It owns nothing now,
        # so its copies are filtered and the survivors' are the answer.
        assert 3 not in asked_again
        assert [k for k, _ in result["items"]] == moved
        assert all(v != "from3" for _, v in result["items"])
        assert result["count"] == 2 and result["racks"] == 4


class TestDeleteRacesAScanPage:
    """Both scan consumers read a short page as "source exhausted": a
    delete landing while a page's reads are out must not shorten it."""

    @staticmethod
    def keys_on_rack_zero(router, n):
        return [k for k in (f"a{i:04d}" for i in range(2000))
                if router.fleet.read_owner(k) == 0][:n]

    def test_a_leg_that_loses_a_key_mid_read_is_still_asked_again(self):
        async def scenario():
            router = make_router(racks=4)
            await router.start()
            try:
                # Rack 0 holds the whole answer; the others only keys
                # above it.  count 4 over 4 racks: limit 2.
                low = self.keys_on_rack_zero(router, 8)
                for key in low:
                    plant(router, key)
                for i in range(2000):
                    if router.fleet.read_owner(f"z{i:04d}") != 0:
                        plant(router, f"z{i:04d}")
                scan = router.submit_scan("", 4)
                delete = router.submit_delete(low[1])
                result = await scan
                await delete
                return result, low
            finally:
                await router.stop()

        result, low = run(scenario())
        # low[1] vanished from rack 0's first leg of exactly `limit`
        # keys; the leg is topped up, so it still reads as full.
        assert [k for k, _ in result["items"]] == [low[0]] + low[2:5]

    def test_a_delete_mid_page_does_not_end_the_migration_stream(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                keys = [f"k{i:04d}" for i in range(60)]
                for key in keys:
                    plant(router, key, "v-" + key)
                source = router._by_index[1]
                held = list(source.bridge.kv._keys)
                assert len(held) > 8
                victim = held[1]
                inner = source.bridge.submit_scan
                racing = []

                def submit_scan(start, limit, client="live"):
                    future = inner(start, limit, client)
                    if client == "migrate" and not racing:
                        # The source leg of a foreground delete of a
                        # key in the page, in the same pump turn.
                        racing.append(source.bridge.submit_delete(victim))
                    return future

                source.bridge.submit_scan = submit_scan
                await router.drain_rack(1, batch_size=4, pause_s=0.0)
                await racing[0]
                reads = {k: await router.submit_get(k) for k in keys}
                return reads, victim
            finally:
                await router.stop()

        reads, victim = run(scenario())
        assert not reads.pop(victim)["found"]
        missing = [k for k, r in reads.items()
                   if not r["found"] or r["value"] != "v-" + k]
        assert missing == []
        assert all(r["rack"] in (0, 2) for r in reads.values())


class TestPerShardAdmission:
    def test_overload_on_one_shard_sheds_only_that_shard(self):
        async def scenario():
            router = make_router(racks=2, queue_depth=1)
            await router.start()
            try:
                ring = HashRing(range(2))
                by_owner = {0: [], 1: []}
                for g in range(router.total_pairs):
                    by_owner[ring.node_for(f"pair:{g}")].append(g)
                busy_pair = by_owner[0][0]
                other_pair = by_owner[1][0]
                request = {"type": "write", "pair": busy_pair, "lpn": 0}
                assert router.try_admit("c", request)
                hold = router.submit_write(busy_pair, 0)  # fills depth=1
                # Same shard: over its own cap.  Other shard: untouched.
                shed = router.try_admit("c", request)
                admitted_elsewhere = router.try_admit(
                    "c", {"type": "write", "pair": other_pair, "lpn": 0}
                )
                await hold
                return shed, admitted_elsewhere
            finally:
                await router.stop()

        shed, admitted_elsewhere = run(scenario())
        assert shed is False
        assert admitted_elsewhere is True

    def test_unroutable_is_admitted_for_dispatch_to_reject(self):
        async def scenario():
            router = make_router(racks=2)
            await router.start()
            try:
                assert router.try_admit("c", {"type": "frobnicate"})
                assert router.try_admit("c", {"type": "read"})  # no pair
                return router.unroutable
            finally:
                await router.stop()

        assert run(scenario()) == 2


class TestGcFallback:
    @staticmethod
    def _mark_both_collecting(shard, local_pair, status=1):
        pair = shard.bridge.rack.pairs[local_pair]
        switch = shard.bridge.rack.switch
        switch.replica_table.set_gc_status(pair.primary.vssd_id, status)
        switch.destination_table.set_gc_status(pair.replica.vssd_id, status)

    def test_fallback_waits_for_the_view_to_sync(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                g = 0
                owner = router._owner_of_pair(g)
                local = g % owner.num_pairs
                self._mark_both_collecting(owner, local)

                # The truth changed, but the router's *view* is stale:
                # reads still go to the owner (the staleness window the
                # batch fabric's 40us sync delay models).
                stale = await router.submit_read(g, lpn=1)

                router.sync_gc_views()
                redirected = await router.submit_read(g, lpn=1)

                # GC finished; one more sync and traffic comes home.
                self._mark_both_collecting(owner, local, status=0)
                router.sync_gc_views()
                recovered = await router.submit_read(g, lpn=1)
                return owner.index, stale, redirected, recovered, router
            finally:
                await router.stop()

        owner_index, stale, redirected, recovered, router = run(scenario())
        assert stale["rack"] == owner_index
        assert "cross_rack" not in stale
        assert redirected["rack"] != owner_index
        assert redirected["cross_rack"] is True
        assert recovered["rack"] == owner_index
        assert router.cross_rack_redirects == 1
        fallback = router._by_index[redirected["rack"]]
        assert fallback.redirected_in == 1
        # The fallback is deterministic: the next distinct ring node.
        assert redirected["rack"] == HashRing(range(3)).preference(
            "pair:0", count=2)[1]

    def test_writes_never_redirect(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                owner = router._owner_of_pair(0)
                self._mark_both_collecting(owner, 0)
                router.sync_gc_views()
                return owner.index, await router.submit_write(0, lpn=1)
            finally:
                await router.stop()

        owner_index, result = run(scenario())
        assert result["rack"] == owner_index

    def test_single_rack_never_redirects(self):
        async def scenario():
            router = make_router(racks=1)
            await router.start()
            try:
                shard = router.shards[0]
                self._mark_both_collecting(shard, 0)
                router.sync_gc_views()
                return await router.submit_read(0, lpn=1)
            finally:
                await router.stop()

        result = run(scenario())
        assert result["rack"] == 0
        assert "cross_rack" not in result


class TestAggregateStats:
    def test_stats_payload_validates_and_aggregates(self):
        async def scenario():
            router = make_router(racks=3)
            await router.start()
            try:
                for g in range(router.total_pairs):
                    await router.submit_write(g, lpn=1)
                await router.submit_get("k1")
                router.sync_gc_views()
                return fleet_stats(router), router.stats()
            finally:
                await router.stop()

        payload, bridge_stats = run(scenario())
        stats_schema.validate_stats(payload)
        assert stats_schema.is_sharded(payload)
        assert stats_schema.shard_ids(payload) == [0, 1, 2]
        assert payload["router"]["racks"] == 3.0
        assert payload["router"]["routed"] == 7.0
        assert payload["router"]["gc_view_commits"] == 1.0
        # Aggregate bridge counters equal the sum of the shard slices.
        per_shard = payload["shards"].values()
        assert payload["bridge"]["completed"] == sum(
            s["bridge"]["completed"] for s in per_shard) == 7.0
        assert bridge_stats.completed == 7
        assert bridge_stats.inflight == 0
        # The fleet's latency counts are the shard sections' summed.
        assert payload["metrics"]["write_count"] == sum(
            s["metrics"].get("write_count", 0.0) for s in per_shard) == 6.0
        assert payload["metrics"]["read_count"] == sum(
            s["metrics"].get("read_count", 0.0) for s in per_shard) == 1.0

    def test_duplicate_shard_indices_rejected(self):
        async def scenario():
            router = make_router(racks=2)
            with pytest.raises(ConfigError, match="unique"):
                ShardRouter([router.shards[0], router.shards[0]])

        run(scenario())
