"""One fleet latency rule, two deployment shapes.

The same seeded put/get/scan sequence runs through the in-process fleet
(:class:`ShardedRackService`) and through a :class:`ShardProxy` over two
in-process :class:`RackService` backends.  In both, the fleet's
``metrics`` are the shard sections' merged -- one sample per request a
rack executed, so a scan counts one read per leg it asked -- and a
response's keys keep the order the rack gave them, the router's tags
last.
"""

import asyncio
import random

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from tests import stats_schema
from tests.test_migration_window import InProc, Proxy

pytestmark = pytest.mark.shard

KEYS = [f"k{i:03d}" for i in range(16)]


async def ask(port, request):
    """One JSON request on its own connection: the answer's key order is
    the server's, with no codec in between."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        protocol.write_frame(writer, dict(request, id=1))
        return await protocol.read_frame(reader, protocol.DEFAULT_MAX_FRAME_BYTES)
    finally:
        writer.close()


def counts(stats, kind):
    """The fleet's ``kind`` count and its shards' summed."""
    shards = stats["shards"].values()
    return (stats["metrics"].get(f"{kind}_count", 0.0),
            sum(s["metrics"].get(f"{kind}_count", 0.0) for s in shards))


async def run_sequence(shape, seed=5):
    rng = random.Random(seed)
    await shape.start()
    try:
        async with ServiceClient("127.0.0.1", shape.port, "user") as client:
            puts = gets = 0
            for _ in range(40):
                key = rng.choice(KEYS)
                if rng.random() < 0.5:
                    await client.put(key, f"v{rng.randrange(100)}")
                    puts += 1
                else:
                    await client.get(key)
                    gets += 1
            before = await client.stats()
            # Past every key: no leg comes back full, none is asked again.
            await client.scan("", count=100)
            after = await client.stats()
            get = await ask(shape.port, {"type": "get", "key": KEYS[0]})
        return puts, gets, before, after, get
    finally:
        await shape.stop()


@pytest.mark.parametrize("shape, legs", [(InProc, 2), (Proxy, 1)])
def test_fleet_metrics_are_the_shards_merged(shape, legs):
    puts, gets, before, after, get = asyncio.run(run_sequence(shape()))
    for stats in (before, after):
        stats_schema.validate_stats(stats)
        for kind in ("read", "write"):
            fleet, shards = counts(stats, kind)
            assert fleet == shards
    assert counts(before, "write")[0] == puts
    assert counts(before, "read")[0] == gets
    # The in-proc router asks every shard for a scan, the proxy only
    # the start key's owner: one read per leg either way.
    assert counts(after, "read")[0] - counts(before, "read")[0] == legs
    assert after["kvstore"]["scans"] - before["kvstore"]["scans"] == legs
    assert after["router"]["scan_reasks"] == 0
    tags = ["rack"] if shape is InProc else []
    assert list(get) == ["ok", "id", "value", "found", "latency_us"] + tags


def test_a_redirected_read_is_tagged_cross_rack_then_rack():
    async def scenario():
        shape = InProc()
        await shape.start()
        try:
            router = shape.router
            owner = router._owner_of_pair(0)
            owner.gc_busy_pairs = lambda: (True, True)  # both copies collect
            router.sync_gc_views()
            return await ask(shape.port, {"type": "read", "pair": 0,
                                          "lpn": 1}), owner.index
        finally:
            await shape.stop()

    read, owner = asyncio.run(scenario())
    assert list(read) == ["ok", "id", "latency_us", "storage_us",
                          "cross_rack", "rack"]
    assert read["rack"] != owner
