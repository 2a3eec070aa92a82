"""End-to-end sharded serving: N racks behind one listener, over TCP.

Covers the wire contract (hello/versioning, rack-tagged responses,
schema-valid sharded stats), keyspace-wide load reaching every shard,
and the rack-qualified chaos drill: one rack dies mid-load and only that
shard's traffic retries -- the other shards' error rate stays zero and
every shard's recovery invariants stay CLEAN.
"""

import asyncio

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.service import protocol
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.loadgen import run_loadgen
from repro.service.router import ShardedRackService, ShardRouter

from tests import stats_schema

pytestmark = pytest.mark.shard

MS = 1000.0


def base_config(schedule=None, **overrides) -> RackConfig:
    defaults = dict(
        system=SystemType("rackblox"), num_servers=2, num_pairs=2, seed=11,
        fault_schedule=schedule,
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


async def start_sharded(racks, schedule=None, *, config_overrides=None,
                        **router_kwargs) -> ShardedRackService:
    router_kwargs.setdefault("precondition", False)
    router_kwargs.setdefault("chunk_us", 2000.0)
    router = ShardRouter.from_config(
        base_config(schedule, **(config_overrides or {})), racks,
        **router_kwargs,
    )
    service = ShardedRackService(router, port=0)
    await service.start()
    return service


class TestWireContract:
    def test_hello_negotiates_version_and_advertises_sharding(self):
        async def scenario():
            service = await start_sharded(racks=3)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    return await c.hello(), c.server_info
            finally:
                await service.stop()

        hello, cached = asyncio.run(scenario())
        assert hello["v"] == protocol.PROTOCOL_VERSION
        assert hello["racks"] == 3
        assert "sharded" in hello["capabilities"]
        assert cached is hello  # the client remembers the handshake

    def test_future_version_rejected_with_typed_error(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    try:
                        await c.request({"type": "ping", "v": 99})
                    except ServiceError as exc:
                        return exc
            finally:
                await service.stop()

        exc = asyncio.run(scenario())
        assert exc.code == protocol.UNSUPPORTED_VERSION
        assert f"v{protocol.PROTOCOL_VERSION}" in exc.message
        assert "99" in exc.message

    def test_responses_carry_their_rack(self):
        async def scenario():
            service = await start_sharded(racks=3)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    writes = [await c.write(g, 1) for g in range(6)]
                    scan_seed = await c.put("k1", "v1")
                    scan = await c.scan("", count=5)
                    return writes, scan_seed, scan
            finally:
                await service.stop()

        writes, scan_seed, scan = asyncio.run(scenario())
        racks_seen = {w["rack"] for w in writes}
        assert racks_seen == {0, 1, 2}  # 6 global pairs cover all racks
        assert scan_seed["rack"] in (0, 1, 2)
        assert scan["racks"] == 3  # scatter-gather touched every shard

    def test_stats_follow_the_sharded_schema(self):
        async def scenario():
            service = await start_sharded(racks=3)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    for g in range(6):
                        await c.write(g, 1)
                    return await c.stats()
            finally:
                await service.stop()

        stats = asyncio.run(scenario())
        stats_schema.validate_stats(stats, client=True)
        assert stats_schema.is_sharded(stats)
        assert stats_schema.shard_ids(stats) == [0, 1, 2]
        assert stats["router"]["racks"] == 3.0
        assert stats["bridge"]["completed"] == 6.0
        per_shard = [s["bridge"]["submitted"]
                     for s in stats["shards"].values()]
        assert sum(per_shard) == 6.0 and all(n > 0 for n in per_shard)

    def test_single_rack_service_is_not_sharded(self):
        # --racks 1 must stay byte-identical to the unsharded service:
        # same schema, no router/shards sections.
        async def scenario():
            service = await start_sharded(racks=1)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    hello = await c.hello()
                    await c.write(0, 1)
                    return hello, await c.stats()
            finally:
                await service.stop()

        hello, stats = asyncio.run(scenario())
        assert hello["racks"] == 1
        stats_schema.validate_stats(stats, client=True)

    def test_bad_requests_reject_like_a_single_rack(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    codes = []
                    for bad in (
                        {"type": "frobnicate"},
                        {"type": "read", "lpn": 1},          # no pair
                        {"type": "read", "pair": 99, "lpn": 1},  # off the end
                        {"type": "get"},                     # no key
                    ):
                        try:
                            await c.request(bad)
                        except ServiceError as exc:
                            codes.append(exc.code)
                    return codes
            finally:
                await service.stop()

        assert asyncio.run(scenario()) == [protocol.BAD_REQUEST] * 4


class TestLoneScan:
    """The flush that follows a pump turn is deferred by one loop tick
    because a routed completion crosses two futures.  A scatter that
    resolved its response any later than that would buffer it after
    the last flush, and with nothing else in flight it would never
    leave the server."""

    @pytest.mark.parametrize("skewed", [False, True],
                             ids=["one-round", "asked-again"])
    def test_a_scan_with_nothing_else_in_flight_is_answered(self, skewed):
        async def scenario():
            service = await start_sharded(racks=4)
            owner = service.router.fleet.read_owner
            candidates = [f"k{i:04d}" for i in range(400)]
            if skewed:  # rack 0 owns the whole answer
                candidates = [k for k in candidates if owner(k) == 0]
            keys = candidates[:24]
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    for key in keys:
                        await c.put(key, "v")
                    scan = await asyncio.wait_for(c.scan("", count=10), 10.0)
                    return scan, keys, (await c.stats())["router"]
            finally:
                await service.stop()

        scan, keys, router = asyncio.run(scenario())
        assert [k for k, _ in scan["items"]] == keys[:10]
        assert scan["racks"] == 4 and scan["count"] == 10
        assert router["scatter_scans"] == 1.0
        assert router["scan_reasks"] == (1.0 if skewed else 0.0)


class TestKeyspaceCoverage:
    @pytest.mark.slow
    def test_loadgen_keyspace_reaches_every_shard(self):
        # Satellite #4: a keyspace-wide kv load against a 4-shard
        # service must exercise all four shards (the ring spreads
        # "key:k........" labels), visible in the per-shard kvstore
        # counters of the sharded stats payload.
        async def scenario():
            service = await start_sharded(racks=4)
            try:
                return await run_loadgen(
                    "127.0.0.1", service.port, clients=4,
                    requests_per_client=40, kind="kv", keyspace=512,
                    write_ratio=0.5, seed=7,
                )
            finally:
                await service.stop()

        report = asyncio.run(scenario())
        assert report.errors == 0 and report.ok == 160
        stats = report.server_stats
        stats_schema.validate_stats(stats)
        assert stats_schema.shard_ids(stats) == [0, 1, 2, 3]
        for shard_id, section in stats["shards"].items():
            kv = section["kvstore"]
            assert kv["gets"] + kv["puts"] > 0, f"shard {shard_id} idle"
        # The aggregate equals the sum of the slices.
        assert stats["kvstore"]["puts"] == sum(
            s["kvstore"]["puts"] for s in stats["shards"].values()
        )


def rack1_crash_schedule() -> FaultSchedule:
    """Kill rack 1's server:0 mid-load; other racks get no events."""
    return FaultSchedule(
        events=(
            FaultEvent(10.0 * MS, "server_crash", "server:0", rack=1),
            FaultEvent(100.0 * MS, "server_recover", "server:0", rack=1),
        ),
        heartbeat_interval_us=3.0 * MS,
        miss_threshold=3,
    )


@pytest.mark.chaos
class TestRackQualifiedChaos:
    @pytest.mark.slow
    def test_one_rack_dies_and_only_that_shard_retries(self):
        # The acceptance drill: a rack-qualified crash window, load
        # spread over every shard, clients armed with retries.
        # The blast radius must be shard 1 alone.
        async def scenario():
            service = await start_sharded(
                racks=3, schedule=rack1_crash_schedule(),
                request_timeout_us=30.0 * MS,
            )
            errors = []
            try:
                client = ServiceClient(
                    "127.0.0.1", service.port,
                    config=ClientConfig(
                        max_retries=8, retry_backoff_s=0.001,
                        request_timeout_s=30.0,
                    ),
                )
                window = asyncio.Semaphore(8)

                async def one_op(i):
                    pair, lpn = i % 6, i % 64
                    async with window:
                        try:
                            if i % 2:
                                await client.write(pair, lpn)
                            else:
                                await client.read(pair, lpn)
                        except Exception as exc:
                            errors.append((i, repr(exc)))

                async with client:
                    await asyncio.gather(*(one_op(i) for i in range(240)))
                    stats = await client.stats()
            finally:
                await service.stop()
            return errors, stats

        errors, stats = asyncio.run(scenario())
        assert errors == [], f"ops failed through retries: {errors[:5]}"
        stats_schema.validate_stats(stats, client=True)
        # The outage really happened -- on rack 1 and nowhere else.
        shards = stats["shards"]
        assert shards["1"]["chaos"]["crashes"] == 1.0
        assert shards["1"]["chaos"]["detections"] == 1.0
        assert stats["client"]["retries"] > 0
        # Blast radius: the healthy shards saw zero failures of any
        # kind -- no crash, no timeout, no shedding.
        for healthy in ("0", "2"):
            assert shards[healthy]["chaos"]["crashes"] == 0.0
            assert shards[healthy]["bridge"]["timed_out"] == 0.0
            assert shards[healthy]["admission"]["shed_queue_full"] == 0.0
        # Recovery invariants stay CLEAN on every shard, including the
        # one that crashed.
        for shard_id, section in shards.items():
            assert section["chaos"]["invariant_violations"] == 0.0, shard_id
            assert section["chaos"]["lost_acked_writes"] == 0.0, shard_id

    def test_rack_qualified_events_do_not_leak(self):
        # A schedule aimed at rack 1 must arm (empty) injectors on the
        # other racks: chaos sections present, zero events executed.
        async def scenario():
            service = await start_sharded(
                racks=3, schedule=rack1_crash_schedule(),
            )
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    await c.write(0, 1)
                    return await c.stats()
            finally:
                await service.stop()

        stats = asyncio.run(scenario())
        for shard_id in ("0", "2"):
            chaos = stats["shards"][shard_id].get("chaos")
            assert chaos is None or chaos["crashes"] == 0.0, shard_id
