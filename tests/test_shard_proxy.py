"""Process-mode sharding: the frame-relay proxy over real backend
processes.

These are the slowest tests in the suite (each spawns one ``repro.cli
serve`` interpreter per rack), so they cover only what the in-process
router tests cannot: the relay path itself, stats gathered over the
wire from live backends, and the crash drill -- one backend process
dies and only its shard's requests fail (retryably), while the
surviving rack keeps serving on the same client connection.
"""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.metrics import LogHistogram
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.router import (
    ShardProxy,
    launch_backends,
    shutdown_backends,
)
from repro.service.shard import HashRing

from tests import stats_schema

pytestmark = [pytest.mark.shard, pytest.mark.slow]

BACKEND_ARGS = (
    "--racks", "1", "--system", "rackblox",
    "--servers", "2", "--pairs", "2", "--chunk-us", "2000",
)


async def start_proxy(racks=2, seed=11):
    procs, endpoints = await launch_backends(
        racks, BACKEND_ARGS, seed=seed
    )
    proxy = ShardProxy(endpoints, port=0, pairs_per_rack=2)
    await proxy.start()
    return procs, proxy


def pairs_by_backend(racks=2, pairs_per_rack=2):
    ring = HashRing(range(racks))
    owned = {node: [] for node in range(racks)}
    for g in range(racks * pairs_per_rack):
        owned[ring.node_for(f"pair:{g}")].append(g)
    return owned


class TestRelay:
    def test_end_to_end_relay_and_stats(self):
        async def scenario():
            procs, proxy = await start_proxy()
            try:
                async with ServiceClient("127.0.0.1", proxy.port) as c:
                    hello = await c.hello()
                    for g in range(4):
                        await c.write(g, 1)
                    await c.put("k1", "v1")
                    got = await c.get("k1")
                    stats = await c.stats()
                return hello, got, stats
            finally:
                await proxy.stop()
                await shutdown_backends(procs)

        hello, got, stats = asyncio.run(scenario())
        assert hello["v"] == protocol.PROTOCOL_VERSION
        assert hello["racks"] == 2
        assert "proxy" in hello["capabilities"]
        assert got["value"] == "v1"
        stats_schema.validate_stats(stats, client=True)
        assert stats_schema.shard_ids(stats) == [0, 1]
        # Both backends really simulated their slice of the writes.
        submitted = [s["bridge"]["submitted"]
                     for s in stats["shards"].values()]
        assert all(n > 0 for n in submitted)
        assert stats["router"]["routed"] >= 6.0
        # The fleet's write latency is the backends' histograms merged.
        merged = LogHistogram()
        for shard in stats["shards"].values():
            merged.merge(LogHistogram.from_wire(
                shard["histograms"]["write_total"]))
        assert merged.count == stats["metrics"]["write_count"] == 5.0
        assert stats["metrics"]["write_p99_us"] == merged.p99()
        assert stats["histograms"]["write_total"]["counts"] \
            == merged.to_wire()["counts"]

    def test_version_check_happens_at_the_proxy(self):
        async def scenario():
            procs, proxy = await start_proxy()
            try:
                async with ServiceClient("127.0.0.1", proxy.port) as c:
                    try:
                        await c.request({"type": "ping", "v": 99})
                    except ServiceError as exc:
                        return exc
            finally:
                await proxy.stop()
                await shutdown_backends(procs)

        exc = asyncio.run(scenario())
        assert exc.code == protocol.UNSUPPORTED_VERSION


@pytest.mark.chaos
class TestBackendDeath:
    def test_dead_backend_fails_retryably_and_alone(self):
        # The process-mode crash drill: SIGKILL one rack's interpreter
        # and the proxy must (a) answer that shard's requests with the
        # retryable TIMEOUT the client's retry loop understands, and
        # (b) keep relaying the surviving rack's traffic on the very
        # same client connection.
        owned = pairs_by_backend()
        dead_pair, live_pair = owned[1][0], owned[0][0]

        async def scenario():
            procs, proxy = await start_proxy()
            try:
                async with ServiceClient("127.0.0.1", proxy.port) as c:
                    await c.write(dead_pair, 1)  # link up, backend alive
                    await c.write(live_pair, 1)
                    procs[1].kill()
                    await procs[1].wait()
                    outcomes = []
                    for _ in range(2):  # dead link, then failed redial
                        try:
                            outcomes.append(await c.write(dead_pair, 2))
                        except ServiceError as exc:
                            outcomes.append(exc)
                    survivor = await c.write(live_pair, 2)
                    return outcomes, survivor
            finally:
                await proxy.stop()
                await shutdown_backends(procs)

        outcomes, survivor = asyncio.run(scenario())
        assert outcomes, "no requests reached the dead shard"
        for outcome in outcomes:
            assert isinstance(outcome, ServiceError), outcome
            assert outcome.code == protocol.TIMEOUT  # retryable by contract
            assert "backend rack 1" in outcome.message
        assert survivor["ok"] and survivor["latency_us"] > 0


class TestProxyConstruction:
    def test_rejects_empty_backends_and_bad_pairs(self):
        with pytest.raises(ConfigError):
            ShardProxy([], pairs_per_rack=2)
        with pytest.raises(ConfigError):
            ShardProxy([("127.0.0.1", 1)], pairs_per_rack=0)
