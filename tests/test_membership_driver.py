"""``run_membership_change`` against fake endpoints: the one driver both
deployment shapes hand their plan to, with no rack, bridge or socket."""

import asyncio

import pytest

from repro.service.membership import FleetController, MembershipError
from repro.service.migration import run_membership_change
from repro.service.readcache import ReadCache
from repro.service.shard import HashRing

pytestmark = pytest.mark.fleet

REPORT_KEYS = {"rack", "epoch", "kind", "keys_moved", "bytes_streamed",
               "skipped_forwarded", "attempts", "moved_fraction", "racks"}


class FakeFleet:
    """Per-node dicts behind ``(scan, put, delete, close)``; ``put``
    raises for as many attempts as ``failing_attempts`` says, after the
    first ``puts_before_failing`` of each such attempt succeed."""

    def __init__(self, controller, keys, failing_attempts=0,
                 puts_before_failing=0):
        self.controller = controller
        self.stores = {node: {} for node in controller.ring.nodes}
        for key in keys:
            self.stores[controller.ring.node_for(f"key:{key}")][key] = "v"
        self.failing_attempts = failing_attempts
        self.puts_before_failing = puts_before_failing
        self.dials = 0
        self.closes = 0

    def endpoints(self):
        self.dials += 1
        attempt = self.dials
        puts = 0

        async def scan(src, start, count):
            keys = sorted(k for k in self.stores[src] if k >= start)[:count]
            return [(k, self.stores[src][k]) for k in keys]

        async def put(dst, key, value):
            nonlocal puts
            puts += 1
            if attempt <= self.failing_attempts \
                    and puts > self.puts_before_failing:
                raise ConnectionResetError(f"rack {dst} went away")
            self.stores.setdefault(dst, {})[key] = value

        async def delete(src, key):
            self.stores[src].pop(key, None)

        async def close():
            self.closes += 1

        return scan, put, delete, close


KEYS = [f"key-{i:03d}" for i in range(120)]


def test_mid_stream_failure_retries_tainted_then_aborts():
    controller = FleetController(HashRing(range(2)))
    fleet = FakeFleet(controller, KEYS, failing_attempts=2)
    before = {node: dict(store) for node, store in fleet.stores.items()}
    cache = ReadCache(64)

    async def scenario():
        plan = controller.begin_add(2)
        with pytest.raises(MembershipError) as err:
            await run_membership_change(
                controller, plan, fleet.endpoints, read_cache=cache,
                batch_size=16, pause_s=0.0, max_attempts=2,
                retry_backoff_s=0.0,
            )
        return err.value

    exc = asyncio.run(scenario())
    assert "admitting rack 2 failed after 2 attempt(s)" in str(exc)
    assert fleet.dials == 2                         # one per attempt
    assert fleet.closes == 2                        # one per failed attempt
    assert (controller.epoch, controller.ring.nodes,
            controller.migrating) == (0, [0, 1], False)
    assert controller.counters["aborts"] == 2
    assert cache.epoch == 0                         # never fenced
    assert {n: fleet.stores[n] for n in (0, 1)} == before


@pytest.mark.parametrize("kind", ["add", "drain"])
def test_abort_deletes_what_reached_the_destinations(kind):
    controller = FleetController(HashRing(range(3 if kind == "drain" else 2)))
    fleet = FakeFleet(controller, KEYS, failing_attempts=2,
                      puts_before_failing=5)
    before = {node: dict(store) for node, store in fleet.stores.items()}

    async def scenario():
        plan = (controller.begin_add(2) if kind == "add"
                else controller.begin_drain(2))
        with pytest.raises(MembershipError):
            await run_membership_change(
                controller, plan, fleet.endpoints, batch_size=4,
                pause_s=0.0, max_attempts=2, retry_backoff_s=0.0,
            )
        return plan

    plan = asyncio.run(scenario())
    assert len(plan.copied) >= 5, "the attempts must have copied keys"
    # Every node holds exactly what it held before the change: a key
    # deleted at its owner later has no stale copy left to come back.
    assert {n: s for n, s in fleet.stores.items() if s or n in before} \
        == before
    assert controller.counters["cleanup_deletes"] == len(plan.copied)


@pytest.mark.parametrize("kind", ["add", "drain"])
def test_success_fences_the_cache_and_reports_nine_fields(kind):
    controller = FleetController(HashRing(range(3 if kind == "drain" else 2)))
    fleet = FakeFleet(controller, KEYS, failing_attempts=1)
    cache = ReadCache(64)
    node = 2
    stale = next(k for k in KEYS if k in fleet.stores[0 if kind == "add"
                                                       else node])
    _, _, token = cache.lookup(stale, "default")

    async def scenario():
        plan = (controller.begin_add(node) if kind == "add"
                else controller.begin_drain(node))
        return await run_membership_change(
            controller, plan, fleet.endpoints, read_cache=cache,
            batch_size=16, pause_s=0.0, retry_backoff_s=0.0,
        )

    report = asyncio.run(scenario())
    assert set(report) == REPORT_KEYS
    assert (report["rack"], report["kind"], report["epoch"],
            report["attempts"]) == (node, kind, 1, 2)
    assert report["racks"] == controller.ring.nodes == (
        [0, 1, 2] if kind == "add" else [0, 1])
    assert report["keys_moved"] > 0
    assert 0.0 < report["moved_fraction"] < 1.0
    assert (controller.epoch, controller.migrating) == (1, False)
    assert cache.epoch == 1
    assert not cache.fill(stale, "pre-cutover", "default", token)
    assert fleet.closes == 2
    # Every key now sits at the owner the new ring names...
    for key in KEYS:
        owner = controller.ring.node_for(f"key:{key}")
        assert fleet.stores[owner].get(key) == "v", key
    if kind == "add":
        # ...and an add deleted the shadows it left behind.
        assert sum(len(store) for store in fleet.stores.values()) == len(KEYS)
    else:
        # A drained rack keeps its copies; they leave with it.
        assert len(fleet.stores[node]) == report["keys_moved"]
