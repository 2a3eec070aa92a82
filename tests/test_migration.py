"""Live fleet membership, end to end over TCP: racks join and leave a
serving fleet while clients keep reading and writing.

The acceptance drills:

* **add under load** -- a third rack joins a live 2-rack fleet: only
  ~1/(N+1) of the keys move, every acked write stays readable, the
  epoch bumps exactly once, and scans stay duplicate-free;
* **write mid-stream** -- a key rewritten while its range is streaming
  resolves to the *rewritten* value (write-forwarding wins over the
  stream's older copy);
* **drain** -- a rack leaves and its keys are all still served by the
  survivors; draining a rack that is *crashed* rides the retry path and
  still completes once the rack recovers;
* **abort + retry** -- a migration that cannot finish aborts cleanly
  (old ring keeps ruling, zero lost writes, no copy left behind at a
  destination to resurrect a key deleted later) and the same change
  retried later succeeds;
* **epoch fencing** -- a client that pinned a routing epoch gets
  ``WRONG_SHARD`` after the cutover and transparently refreshes;
* **load-aware reads across the window** -- under ``--read-policy p2c``
  a rack joins (and another drains) mid-load with zero failed or stale
  reads, and the routing trace proves the selector never diverted onto
  the migrating rack nor targeted the retiree after its cutover.
"""

import asyncio

import pytest

from repro.chaos import FaultEvent, FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.service import protocol
from repro.service.bridge import SimTimeBridge
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.membership import MembershipError
from repro.service.router import ShardedRackService, ShardRouter
from repro.service.selector import REASON_P2C, POLICY_P2C

from tests import stats_schema
from tests.routing_harness import RoutingTrace

pytestmark = [pytest.mark.fleet, pytest.mark.shard]

MS = 1000.0


def base_config(schedule=None, **overrides) -> RackConfig:
    defaults = dict(
        system=SystemType("rackblox"), num_servers=2, num_pairs=2, seed=11,
        fault_schedule=schedule,
    )
    defaults.update(overrides)
    return RackConfig(**defaults)


async def start_sharded(racks, schedule=None, **router_kwargs):
    router_kwargs.setdefault("precondition", False)
    router_kwargs.setdefault("chunk_us", 2000.0)
    router = ShardRouter.from_config(base_config(schedule), racks,
                                     **router_kwargs)
    service = ShardedRackService(router, port=0)
    await service.start()
    return service


async def seed_keys(client, count):
    """Write ``count`` keys; returns the acked {key: value} map."""
    acked = {}
    for i in range(count):
        key = f"k{i:05d}"
        await client.put(key, f"v{i}")
        acked[key] = f"v{i}"
    return acked


async def scan_everything(client):
    """Paginate scans to exhaustion; returns every (key, value) seen."""
    items, start = [], ""
    while True:
        page = await client.scan(start, count=64)
        items.extend((k, v) for k, v in page["items"])
        if len(page["items"]) < 64:
            return items
        start = page["items"][-1][0] + "\x00"


def flaky_migrate_puts(monkeypatch, fails):
    """Make the next ``fails`` migration-stream puts raise (-1: all)."""
    real = SimTimeBridge.submit_put
    state = {"left": fails}

    def wrapper(self, key, value, client="live"):
        if client == "migrate" and state["left"] != 0:
            if state["left"] > 0:
                state["left"] -= 1
            raise ConnectionError("injected migrate-put failure")
        return real(self, key, value, client)

    monkeypatch.setattr(SimTimeBridge, "submit_put", wrapper)
    return state


class TestAddRackLive:
    @pytest.mark.slow
    def test_add_under_load_moves_one_share_and_loses_nothing(self):
        load_errors = []

        async def scenario():
            service = await start_sharded(racks=2)
            try:
                admin = ServiceClient("127.0.0.1", service.port, "admin")
                worker = ServiceClient("127.0.0.1", service.port, "worker")
                async with admin, worker:
                    acked = await seed_keys(admin, 200)
                    stop = asyncio.Event()

                    async def background_load():
                        i = 0
                        while not stop.is_set():
                            key = f"k{i % 200:05d}"
                            try:
                                if i % 3 == 0:
                                    acked[key] = f"live-{i}"
                                    await worker.put(key, f"live-{i}")
                                else:
                                    await worker.get(key)
                            except ServiceError as exc:
                                load_errors.append(exc.code)
                            i += 1
                            await asyncio.sleep(0)

                    load = asyncio.ensure_future(background_load())
                    result = await admin.fleet_add_rack(
                        batch_size=16, pause_s=0.001,
                    )
                    stop.set()
                    await load
                    survived = {k: (await admin.get(k)) for k in acked}
                    stats = await admin.stats()
                    status = await admin.fleet_status()
                return result, acked, survived, stats, status
            finally:
                await service.stop()

        result, acked, survived, stats, status = asyncio.run(scenario())
        assert load_errors == [], "live ops must not fail during the window"
        assert result["kind"] == "add" and result["rack"] == 2
        assert result["epoch"] == 1 and result["racks"] == [0, 1, 2]
        # The rebalance property, live: ~1/(N+1) of the keys moved, with
        # the same generous slack the ring property tests allow.
        assert 0 < result["keys_moved"] <= 1.8 * len(acked) / 3
        assert 0 < result["moved_fraction"] <= 1.8 / 3
        # Zero lost acked writes: every key reads back its last acked
        # value, including keys rewritten mid-migration.
        for key, value in acked.items():
            response = survived[key]
            assert response["found"] and response["value"] == value, key
        stats_schema.validate_stats(stats, client=True)
        migration = stats["migration"]
        assert migration["epoch"] == 1.0 and migration["racks_added"] == 1.0
        assert migration["keys_moved"] == float(result["keys_moved"])
        assert migration["aborts"] == 0.0
        assert stats["router"]["epoch"] == 1.0
        assert stats_schema.shard_ids(stats) == [0, 1, 2]
        assert status["epoch"] == 1 and status["migrating"] is False

    def test_add_to_empty_fleet_streams_nothing(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    result = await c.fleet_add_rack()
                    hello = await c.hello()
                return result, hello
            finally:
                await service.stop()

        result, hello = asyncio.run(scenario())
        assert result["keys_moved"] == 0 and result["epoch"] == 1
        assert result["racks"] == [0, 1, 2]
        assert hello["racks"] == 3 and hello["epoch"] == 1

    def test_scan_is_duplicate_free_after_the_cutover(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 150)
                    await c.fleet_add_rack(batch_size=32)
                    return acked, await scan_everything(c)
            finally:
                await service.stop()

        acked, items = asyncio.run(scenario())
        keys = [k for k, _ in items]
        assert len(keys) == len(set(keys)), "scan returned duplicates"
        assert dict(items) == acked


class TestWriteDuringMigration:
    def test_write_mid_stream_forwarding_wins(self):
        async def scenario():
            service = await start_sharded(racks=2)
            fleet = service.router.fleet
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 150)
                    # A slow stream (1 key per batch, wall pauses)
                    # guarantees the window is open while we rewrite.
                    admit = asyncio.ensure_future(
                        service.router.admit_rack(batch_size=1,
                                                  pause_s=0.005)
                    )
                    while not fleet.migrating:
                        await asyncio.sleep(0)
                    rewritten = {}
                    i = 0
                    while fleet.migrating and i < 150:
                        key = f"k{i:05d}"
                        moving = (
                            fleet.plan is not None and
                            fleet.plan.moving_range_for_key(key) is not None
                        )
                        await c.put(key, f"fresh-{i}")
                        acked[key] = f"fresh-{i}"
                        if moving:
                            rewritten[key] = f"fresh-{i}"
                        i += 1
                    result = await admit
                    reads = {k: await c.get(k) for k in acked}
                    counters = dict(fleet.counters)
                return result, acked, rewritten, reads, counters
            finally:
                await service.stop()

        result, acked, rewritten, reads, counters = asyncio.run(scenario())
        assert rewritten, "no key was rewritten inside the window"
        assert counters["write_forwards"] >= len(rewritten)
        # The forwarded value -- not the stream's older copy -- is what
        # the new owner serves after the cutover.
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key
        assert result["epoch"] == 1


class TestDrainRack:
    def test_drain_moves_every_key_to_the_survivors(self):
        async def scenario():
            service = await start_sharded(racks=3)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 150)
                    result = await c.fleet_drain_rack(1)
                    reads = {k: await c.get(k) for k in acked}
                    stats = await c.stats()
                    items = await scan_everything(c)
                return result, acked, reads, stats, items
            finally:
                await service.stop()

        result, acked, reads, stats, items = asyncio.run(scenario())
        assert result["kind"] == "drain" and result["rack"] == 1
        assert result["racks"] == [0, 2] and result["epoch"] == 1
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key
        assert stats_schema.shard_ids(stats) == [0, 2]
        assert {r["rack"] for r in reads.values()} <= {0, 2}
        keys = [k for k, _ in items]
        assert len(keys) == len(set(keys)) and dict(items) == acked

    def test_drain_rejects_strangers_and_the_last_rack(self):
        async def scenario():
            service = await start_sharded(racks=2)
            codes = []
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    try:
                        await c.fleet_drain_rack(7)     # never a member
                    except ServiceError as exc:
                        codes.append(exc.code)
                    await c.fleet_drain_rack(1)
                    try:
                        await c.fleet_drain_rack(0)     # last one standing
                    except ServiceError as exc:
                        codes.append(exc.code)
                return codes
            finally:
                await service.stop()

        codes = asyncio.run(scenario())
        assert codes == [protocol.INTERNAL, protocol.INTERNAL]

    @pytest.mark.chaos
    @pytest.mark.slow
    def test_drain_of_a_crashed_rack_retries_to_completion(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(10.0 * MS, "server_crash", "server:0", rack=1),
                FaultEvent(100.0 * MS, "server_recover", "server:0", rack=1),
            ),
            heartbeat_interval_us=3.0 * MS,
            miss_threshold=3,
        )

        async def scenario():
            service = await start_sharded(
                racks=3, schedule=schedule, request_timeout_us=30.0 * MS,
            )
            try:
                client = ServiceClient(
                    "127.0.0.1", service.port,
                    config=ClientConfig(max_retries=8,
                                        retry_backoff_s=0.001),
                )
                async with client:
                    acked = await seed_keys(client, 120)
                    result = await client.fleet_drain_rack(
                        1, max_attempts=8,
                    )
                    reads = {k: await client.get(k) for k in acked}
                    stats = await client.stats()
                return result, acked, reads, stats
            finally:
                await service.stop()

        result, acked, reads, stats = asyncio.run(scenario())
        assert result["kind"] == "drain" and result["racks"] == [0, 2]
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key
        # The survivors' recovery invariants stay CLEAN: the drain lost
        # no acked write even with the source mid-crash.
        for shard_id, section in stats["shards"].items():
            chaos = section.get("chaos")
            if chaos is not None:
                assert chaos["lost_acked_writes"] == 0.0, shard_id
                assert chaos["invariant_violations"] == 0.0, shard_id


class TestAbortAndRetry:
    def test_failed_add_aborts_cleanly_and_retries_idempotently(self,
                                                                monkeypatch):
        state = flaky_migrate_puts(monkeypatch, fails=-1)

        async def scenario():
            service = await start_sharded(racks=2)
            router = service.router
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 100)
                    with pytest.raises(MembershipError):
                        await router.admit_rack(max_attempts=2,
                                                retry_backoff_s=0.0)
                    aborted = (
                        router.fleet.epoch, router.fleet.ring.nodes,
                        router.fleet.migrating, len(router.shards),
                        dict(router.fleet.counters),
                    )
                    mid_reads = {k: await c.get(k) for k in acked}
                    # Heal the fault: the same change, retried from the
                    # outside, lands on its first fresh attempt.
                    state["left"] = 0
                    result = await router.admit_rack()
                    final_reads = {k: await c.get(k) for k in acked}
                return acked, aborted, mid_reads, result, final_reads
            finally:
                await service.stop()

        acked, aborted, mid_reads, result, final_reads = asyncio.run(
            scenario())
        epoch, nodes, migrating, shard_count, counters = aborted
        # The abort restored the exact pre-change fleet...
        assert epoch == 0 and nodes == [0, 1] and not migrating
        assert shard_count == 2
        assert counters["aborts"] == 2 and counters["racks_added"] == 0
        # ...with zero lost acked writes...
        for key, value in acked.items():
            assert mid_reads[key]["found"] and \
                mid_reads[key]["value"] == value, key
        # ...and the retried change is a plain, clean add.
        assert result["rack"] == 2 and result["epoch"] == 1
        assert result["attempts"] == 1
        for key, value in acked.items():
            assert final_reads[key]["found"] and \
                final_reads[key]["value"] == value, key

    def test_mid_stream_failure_retries_within_the_call(self, monkeypatch):
        flaky_migrate_puts(monkeypatch, fails=1)

        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 100)
                    result = await service.router.admit_rack(
                        retry_backoff_s=0.0,
                    )
                    reads = {k: await c.get(k) for k in acked}
                    counters = dict(service.router.fleet.counters)
                return acked, result, reads, counters
            finally:
                await service.stop()

        acked, result, reads, counters = asyncio.run(scenario())
        assert result["attempts"] == 2, "first attempt must have failed"
        assert counters["aborts"] == 1
        assert result["epoch"] == 1
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key

    def test_scan_after_aborted_drain_filters_shadows(self, monkeypatch):
        # An aborted drain leaves half-streamed shadow copies on the
        # survivors; the scan merge must keep only the authoritative
        # owner's copy of every key.
        state = flaky_migrate_puts(monkeypatch, fails=40)

        async def scenario():
            service = await start_sharded(racks=3)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 120)
                    with pytest.raises(MembershipError):
                        await service.router.drain_rack(
                            1, batch_size=4, max_attempts=1,
                        )
                    state["left"] = 0
                    items = await scan_everything(c)
                    reads = {k: await c.get(k) for k in acked}
                return acked, items, reads
            finally:
                await service.stop()

        acked, items, reads = asyncio.run(scenario())
        keys = [k for k, _ in items]
        assert len(keys) == len(set(keys)), "shadow copies leaked into scan"
        assert dict(items) == acked
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key


    def test_a_key_deleted_after_an_aborted_drain_stays_deleted(
            self, monkeypatch):
        # The first drain streams k00002 to a survivor, then aborts; the
        # key is deleted at its owner; a second drain must not bring the
        # survivor's copy back to life.
        real = SimTimeBridge.submit_put
        streamed = []

        def first_put_then_fail(self, key, value, client="live"):
            if client == "migrate":
                if streamed:
                    raise ConnectionError("injected migrate-put failure")
                streamed.append(key)
            return real(self, key, value, client)

        async def scenario():
            service = await start_sharded(racks=3)
            router = service.router
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 60)
                    monkeypatch.setattr(SimTimeBridge, "submit_put",
                                        first_put_then_fail)
                    with pytest.raises(MembershipError):
                        await router.drain_rack(2, batch_size=4,
                                                max_attempts=1)
                    monkeypatch.setattr(SimTimeBridge, "submit_put", real)
                    key = streamed[0]
                    deleted = await c.delete(key)
                    gone = await c.get(key)
                    await router.drain_rack(2)
                    after = await c.get(key)
                    counters = dict(router.fleet.counters)
                return acked, key, deleted, gone, after, counters
            finally:
                await service.stop()

        acked, key, deleted, gone, after, counters = asyncio.run(scenario())
        assert key in acked
        assert deleted["deleted"] and not gone["found"]
        assert not after["found"], f"{key} came back after the drain"
        assert counters["cleanup_deletes"] >= 1


class TestEpochFencing:
    def test_pinned_client_refreshes_transparently_after_cutover(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                pinned = ServiceClient("127.0.0.1", service.port, "pinned",
                                       config=ClientConfig(track_epoch=True))
                admin = ServiceClient("127.0.0.1", service.port, "admin")
                async with pinned, admin:
                    await pinned.hello()
                    await pinned.put("fence", "before")
                    await admin.fleet_add_rack()
                    # The pinned epoch (0) is now stale: the server
                    # fences the op, the client re-hellos and retries.
                    response = await pinned.get("fence")
                    return (response, dict(pinned.counters),
                            pinned.ring_epoch)
            finally:
                await service.stop()

        response, counters, ring_epoch = asyncio.run(scenario())
        assert response["found"] and response["value"] == "before"
        assert counters["ring_refreshes"] == 1
        assert ring_epoch == 1

    def test_stale_epoch_is_a_typed_wrong_shard_error(self):
        async def scenario():
            service = await start_sharded(racks=2)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    try:
                        await c.request({"type": "get", "key": "x",
                                         "epoch": 99})
                    except ServiceError as exc:
                        return exc
            finally:
                await service.stop()

        exc = asyncio.run(scenario())
        assert exc.code == protocol.WRONG_SHARD
        assert "99" in exc.message


class TestLoadAwareReadsAcrossMigration:
    """``--read-policy p2c`` through a live membership change.

    The selector adds a degree of freedom (reads may leave the hash
    owner), so the migration drills re-run with it on: correctness must
    be byte-for-byte what the hash fleet guarantees -- no failed op, no
    stale value -- and the decision trace must show the policy kept its
    hands off the racks the membership change owns.
    """

    pytestmark = [pytest.mark.routing]

    @pytest.mark.slow
    def test_add_under_p2c_load_loses_nothing(self):
        trace = RoutingTrace(maxlen=100_000)
        load_errors, stale_reads = [], []

        async def scenario():
            service = await start_sharded(racks=2, read_policy=POLICY_P2C,
                                          routing_trace=trace)
            try:
                admin = ServiceClient("127.0.0.1", service.port, "admin")
                worker = ServiceClient("127.0.0.1", service.port, "worker")
                async with admin, worker:
                    acked = await seed_keys(admin, 120)
                    for pair in range(4):
                        await admin.write(pair, lpn=0)
                    stop = asyncio.Event()

                    async def background_load():
                        i = 0
                        while not stop.is_set():
                            try:
                                if i % 2 == 0:
                                    await worker.read(i % 4, lpn=0)
                                else:
                                    key = f"k{i % 120:05d}"
                                    got = await worker.get(key)
                                    if got["value"] != acked[key]:
                                        stale_reads.append((key, got))
                            except ServiceError as exc:
                                load_errors.append(exc.code)
                            i += 1
                            await asyncio.sleep(0)

                    load = asyncio.ensure_future(background_load())
                    result = await admin.fleet_add_rack(
                        batch_size=8, pause_s=0.001,
                    )
                    stop.set()
                    await load
                    survived = {k: (await admin.get(k)) for k in acked}
                    stats = await admin.stats()
                return result, acked, survived, stats
            finally:
                await service.stop()

        result, acked, survived, stats = asyncio.run(scenario())
        assert load_errors == [] and stale_reads == []
        assert result["kind"] == "add" and result["epoch"] == 1
        for key, value in acked.items():
            assert survived[key]["found"] and \
                survived[key]["value"] == value, key
        # The joiner is invisible to the selector until the cutover:
        # every pre-cutover decision raced the two incumbents only.
        decisions = trace.decisions()
        assert decisions, "p2c load left no routing trace"
        for d in decisions:
            if d.epoch == 0:
                assert 2 not in d.candidates and d.chosen in (0, 1), d
        # The policy actually engaged (this is not a fallback-only run).
        assert any(d.reason == REASON_P2C for d in decisions)
        assert stats["routing"]["decisions"] == float(len(decisions))

    def test_drain_under_p2c_never_targets_the_retiree(self):
        trace = RoutingTrace(maxlen=100_000)
        load_errors = []

        async def scenario():
            service = await start_sharded(racks=3, read_policy=POLICY_P2C,
                                          routing_trace=trace)
            fleet = service.router.fleet
            try:
                admin = ServiceClient("127.0.0.1", service.port, "admin")
                worker = ServiceClient("127.0.0.1", service.port, "worker")
                async with admin, worker:
                    acked = await seed_keys(admin, 100)
                    # Pairs 0..3 stay in range after the fleet shrinks
                    # to 2 racks x 2 pairs.
                    for pair in range(4):
                        await admin.write(pair, lpn=0)
                    stop = asyncio.Event()

                    async def background_load():
                        i = 0
                        while not stop.is_set():
                            try:
                                await worker.read(i % 4, lpn=0)
                            except ServiceError as exc:
                                load_errors.append(exc.code)
                            i += 1
                            await asyncio.sleep(0)

                    load = asyncio.ensure_future(background_load())
                    drain = asyncio.ensure_future(
                        service.router.drain_rack(1, batch_size=1,
                                                  pause_s=0.005)
                    )
                    while not fleet.migrating:
                        await asyncio.sleep(0)
                    # Only window-and-later decisions carry the
                    # invariant; pre-drain picks of rack 1 were fine.
                    trace.clear()
                    result = await drain
                    stop.set()
                    await load
                    post = [await worker.read(pair % 4, lpn=0)
                            for pair in range(20)]
                    reads = {k: await worker.get(k) for k in acked}
                return result, acked, reads, post
            finally:
                await service.stop()

        result, acked, reads, post = asyncio.run(scenario())
        assert load_errors == []
        assert result["kind"] == "drain" and result["racks"] == [0, 2]
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key
        # After the cutover no read lands on the retiree...
        assert all(r["rack"] in (0, 2) for r in post)
        decisions = trace.decisions()
        assert decisions, "the drain window saw no routed reads"
        for d in decisions:
            # ...and from the moment the drain began, the selector
            # never *diverted* onto rack 1 (hash-order fallbacks may
            # still land there while it remains authoritative), and
            # post-cutover decisions do not even list it.
            if d.reason == REASON_P2C:
                assert d.chosen != 1, d
            if d.epoch >= 1:
                assert 1 not in d.candidates and d.chosen != 1, d


class TestReadCacheAcrossMigration:
    """The DRAM read cache across membership changes: a moved key must
    never serve a pre-migration value.  Two mechanisms are on trial --
    write-through invalidation (every completed write drops the cached
    copy) and the epoch fence (the cutover drops the *whole* cache)."""

    @pytest.mark.qos
    def test_moved_key_never_serves_stale_value(self):
        from repro.service.qos import QosScheduler
        from repro.service.readcache import ReadCache
        from repro.service.server import CACHE_HIT_LATENCY_US

        async def scenario():
            router = ShardRouter.from_config(base_config(), 2,
                                             precondition=False,
                                             chunk_us=2000.0)
            qos = QosScheduler(None)
            cache = ReadCache(1024, shares=qos.cache_shares())
            service = ShardedRackService(router, port=0, qos=qos,
                                         read_cache=cache)
            await service.start()
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    acked = await seed_keys(c, 120)
                    for key in acked:          # miss + fill
                        await c.get(key)
                    warm = {k: await c.get(k) for k in acked}
                    await c.fleet_add_rack(batch_size=16)
                    fenced = {k: await c.get(k) for k in acked}
                    # Rewrite, then read back: a cached pre-migration
                    # value surviving the fence or an invalidation
                    # would surface right here.
                    for key in list(acked):
                        acked[key] += "-post"
                        await c.put(key, acked[key])
                    reads = {k: await c.get(k) for k in acked}
                    stats = await c.stats()
                return acked, warm, fenced, reads, stats

            finally:
                await service.stop()

        acked, warm, fenced, reads, stats = asyncio.run(scenario())
        hit = lambda r: r.get("latency_us") == CACHE_HIT_LATENCY_US  # noqa: E731
        # The warm-up proves the cache was actually serving these keys
        # before the cutover -- without it the drill would pass trivially.
        assert all(hit(r) for r in warm.values())
        # The epoch fence dropped everything: no read immediately after
        # the cutover is served from DRAM, and none is stale.
        assert not any(hit(r) for r in fenced.values())
        for key in acked:
            assert fenced[key]["value"] == acked[key].removesuffix("-post"), key
        # Post-rewrite reads see the rewrite, never the cached original.
        for key, value in acked.items():
            assert reads[key]["found"] and reads[key]["value"] == value, key
        stats_schema.validate_stats(stats, client=True)
        assert stats["readcache"]["invalidations"] >= 120
