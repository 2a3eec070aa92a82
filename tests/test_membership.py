"""The fleet-membership control plane, in isolation.

:class:`FleetController` is pure routing policy -- no sockets, no
simulator -- so every invariant the live drills depend on is pinned
here first, cheaply:

* one membership change at a time; ``commit`` is the single atomic
  ring+epoch flip; ``abort`` leaves the old ring ruling;
* reads stay on the old owner until the cutover; writes always hit the
  old owner first (abort-safety) and are then forwarded to the new one;
* :func:`forwarded_write` forwards only what the old owner acked, and a
  forward that fails fails the attempt rather than leaving a stale copy
  marked fresh;
* the forwarded-key set keeps the stream from clobbering forwarded
  keys, and the stream-put barrier orders a concurrent forward *after*
  the stream's copy;
* :class:`MigrationStream` moves exactly the plan's keys (paginated,
  throttled), reports what it moved, and surfaces endpoint failures
  with the partial tally attached.
"""

import asyncio

import pytest

from repro.errors import ReproError
from repro.service.membership import (
    FleetController,
    MembershipBusy,
    MembershipError,
)
from repro.service.migration import (
    MigrationStream,
    MigrationStreamError,
    forwarded_write,
)
from repro.service.schema import MIGRATION_FIELDS
from repro.service.shard import HashRing

pytestmark = pytest.mark.fleet

KEYS = [f"k{i:05d}" for i in range(400)]


def controller(racks=2):
    return FleetController(HashRing(range(racks)))


def moving_keys(plan):
    return [k for k in KEYS if plan.moving_range_for_key(k) is not None]


class TestLifecycle:
    def test_one_change_at_a_time(self):
        fleet = controller()
        fleet.begin_add(2)
        with pytest.raises(MembershipBusy):
            fleet.begin_add(3)
        with pytest.raises(MembershipBusy):
            fleet.begin_drain(0)

    def test_add_rejects_member_drain_rejects_stranger(self):
        fleet = controller()
        with pytest.raises(MembershipError):
            fleet.begin_add(1)
        with pytest.raises(MembershipError):
            fleet.begin_drain(7)

    def test_cannot_drain_the_last_rack(self):
        fleet = controller(racks=1)
        with pytest.raises(MembershipError):
            fleet.begin_drain(0)

    def test_commit_flips_ring_and_epoch_atomically(self):
        fleet = controller()
        plan = fleet.begin_add(2)
        assert fleet.ring.nodes == [0, 1]      # old ring rules until commit
        assert fleet.epoch == 0
        epoch = fleet.commit()
        assert epoch == fleet.epoch == 1
        assert fleet.ring is plan.new_ring
        assert fleet.ring.nodes == [0, 1, 2]
        assert not fleet.migrating
        assert fleet.counters["racks_added"] == 1

    def test_abort_keeps_the_old_ring(self):
        fleet = controller()
        fleet.begin_add(2)
        fleet.abort()
        assert fleet.ring.nodes == [0, 1]
        assert fleet.epoch == 0
        assert not fleet.migrating
        assert fleet.counters["aborts"] == 1
        # The fleet is exactly as before: the same add can start over.
        fleet.begin_add(2)

    def test_commit_without_plan_rejected(self):
        with pytest.raises(MembershipError):
            controller().commit()
        with pytest.raises(MembershipError):
            controller().retry()

    def test_retry_taints_and_renumbers(self):
        fleet = controller()
        plan = fleet.begin_add(2)
        fleet.note_forwarded("k1")
        fleet.forward_failed("k1")
        same = fleet.retry()
        assert same is plan
        assert plan.attempt == 2
        assert not fleet.is_forwarded("k1")     # forwards reset per attempt
        fleet.check_forwards()                  # ...and so do failures
        # What the destination may hold outlives the attempt.
        assert plan.copied == {"k1"}
        assert fleet.counters["aborts"] == 1


class TestRouting:
    def test_static_fleet_routes_to_the_ring_owner(self):
        fleet = controller()
        for key in KEYS:
            owner = fleet.ring.node_for(f"key:{key}")
            assert fleet.write_route(key) == (owner, None)
            assert fleet.read_owner(key) == owner

    @pytest.mark.parametrize("kind", ["add", "drain"])
    def test_window_reads_pin_to_the_old_owner(self, kind):
        fleet = controller(racks=2 if kind == "add" else 3)
        plan = fleet.begin_add(2) if kind == "add" else fleet.begin_drain(2)
        moved = moving_keys(plan)
        assert moved, "the diff must move some test keys"
        for attempt in range(2):
            for key in moved:
                rng = plan.moving_range_for_key(key)
                assert (rng.dst == 2) == (kind == "add")
                assert fleet.write_route(key) == (rng.src, rng.dst)
                # Forwarded or not, the old owner stays authoritative
                # until the cutover, on every attempt.
                fleet.note_forwarded(key)
                assert fleet.read_owner(key) == rng.src
            for key in set(KEYS) - set(moved):
                owner = fleet.ring.node_for(f"key:{key}")
                assert fleet.write_route(key) == (owner, None)
                assert fleet.read_owner(key) == owner
            fleet.retry()

    def test_routes_take_raw_keys_not_ring_labels(self):
        # Regression guard for the label convention: the controller owns
        # the "key:" prefixing, callers pass kv keys verbatim.
        fleet = controller()
        plan = fleet.begin_add(2)
        key = moving_keys(plan)[0]
        assert plan.moving_range_for_key(f"key:{key}") is None or \
            plan.moving_range_for_key(f"key:{key}") is not \
            plan.moving_range_for_key(key)
        assert fleet.read_owner(key) == plan.moving_range_for_key(key).src

    def test_cutover_retargets_every_moved_key(self):
        fleet = controller()
        plan = fleet.begin_add(2)
        moved = moving_keys(plan)
        fleet.commit()
        for key in moved:
            assert fleet.write_route(key) == (2, None)
            assert fleet.read_owner(key) == 2


class TestForwardedWrite:
    """The one forwarded-write routine, against a scripted ``apply``."""

    def run(self, fleet, key, answers, between=None):
        """``answers[node]``: a payload, or an exception to raise."""
        legs = []

        async def apply(node):
            legs.append(node)
            if between is not None and len(legs) == 1:
                between()
            answer = answers[node]
            if isinstance(answer, Exception):
                raise answer
            return dict(answer)

        return asyncio.run(forwarded_write(fleet, key, apply)), legs

    def window(self):
        fleet = controller()
        plan = fleet.begin_add(2)
        key = moving_keys(plan)[0]
        return fleet, plan, key, plan.moving_range_for_key(key).src

    def test_old_owner_first_then_forwarded(self):
        fleet, plan, key, src = self.window()
        payload, legs = self.run(fleet, key, {src: {"latency_us": 5.0},
                                              2: {"latency_us": 7.0}})
        assert legs == [src, 2]
        assert payload == {"latency_us": 12.0}
        assert fleet.is_forwarded(key) and key in plan.copied
        assert fleet.counters["write_forwards"] == 1
        fleet.check_forwards()

    def test_a_shed_primary_is_answered_as_is_and_nothing_forwarded(self):
        fleet, plan, key, src = self.window()
        shed = ConnectionError("BUSY")
        with pytest.raises(ConnectionError):
            self.run(fleet, key, {src: shed, 2: {"latency_us": 1.0}})
        # Not marked forwarded: the stream still copies the acked value.
        assert not fleet.is_forwarded(key) and not plan.copied
        assert fleet.counters["write_forwards"] == 0

    def test_a_failed_forward_fails_the_attempt_and_the_ack_stands(self):
        fleet, plan, key, src = self.window()
        payload, legs = self.run(fleet, key, {
            src: {"latency_us": 5.0}, 2: ConnectionError("gone")})
        assert legs == [src, 2] and payload == {"latency_us": 5.0}
        with pytest.raises(MembershipError, match="did not reach"):
            fleet.check_forwards()
        fleet.retry()                           # re-streams from scratch
        fleet.check_forwards()
        assert not fleet.is_forwarded(key)

    def test_a_forward_failing_after_the_cutover_is_an_error(self):
        fleet, plan, key, src = self.window()

        async def apply(node):
            if node == src:
                return {"latency_us": 1.0}
            fleet.commit()          # the cutover lands while it is out
            raise ConnectionError("gone")

        with pytest.raises(ConnectionError):
            asyncio.run(forwarded_write(fleet, key, apply))

    def test_nothing_is_forwarded_once_the_change_aborted(self):
        fleet, plan, key, src = self.window()

        def abort_and_begin_again():
            fleet.abort()
            fleet.begin_add(2)

        payload, legs = self.run(fleet, key, {src: {"latency_us": 1.0},
                                              2: {"latency_us": 1.0}},
                                 between=abort_and_begin_again)
        assert legs == [src] and payload == {"latency_us": 1.0}
        # The next change's stream still copies the key.
        assert not fleet.is_forwarded(key)
        assert fleet.counters["write_forwards"] == 0

    def test_outside_a_window_it_is_a_plain_write(self):
        fleet = controller()
        key = KEYS[0]
        owner = fleet.ring.node_for(f"key:{key}")
        payload, legs = self.run(fleet, key, {owner: {"latency_us": 3.0}})
        assert legs == [owner] and payload == {"latency_us": 3.0}


class TestStreamPutBarrier:
    def test_forward_waits_out_an_inflight_stream_put(self):
        async def scenario():
            fleet = controller()
            token = fleet.stream_put_begin("k1")
            waiter = asyncio.ensure_future(fleet.await_stream_put("k1"))
            await asyncio.sleep(0)
            assert not waiter.done(), "forward must block while streaming"
            fleet.stream_put_end("k1", token)
            await asyncio.wait_for(waiter, 1.0)
            # No in-flight put -> no wait at all.
            await asyncio.wait_for(fleet.await_stream_put("k2"), 1.0)

        asyncio.run(scenario())


class TestReporting:
    def test_status_shape(self):
        fleet = controller()
        status = fleet.status()
        assert status["epoch"] == 0 and status["racks"] == [0, 1]
        assert status["migrating"] is False and status["phase"] == "idle"
        fleet.begin_add(2)
        status = fleet.status()
        assert status["migrating"] is True and status["phase"] == "streaming"
        change = status["change"]
        assert change["kind"] == "add" and change["rack"] == 2
        assert 0 < change["moved_fraction"] < 1

    def test_stats_section_matches_the_schema_fields(self):
        section = controller().stats_section()
        assert sorted(section) == sorted(MIGRATION_FIELDS)
        assert all(isinstance(v, float) for v in section.values())


class FakeShards:
    """Dict-backed shard fleet exposing the stream's endpoint surface."""

    def __init__(self, fleet, racks=2):
        self.data = {n: {} for n in range(racks)}
        self.fleet = fleet
        self.put_log = []
        self.fail_puts = 0

    def seed(self, keys):
        for key in keys:
            src = self.fleet.ring.node_for(f"key:{key}")
            self.data[src][key] = f"v-{key}"

    async def scan(self, src, start, count):
        items = sorted((k, v) for k, v in self.data[src].items()
                       if k >= start)
        return items[:count]

    async def put(self, dst, key, value):
        if self.fail_puts > 0:
            self.fail_puts -= 1
            raise ConnectionError("injected put failure")
        self.put_log.append((dst, key))
        self.data.setdefault(dst, {})[key] = value

    async def delete(self, src, key):
        self.data[src].pop(key, None)


class TestMigrationStream:
    def run_stream(self, fleet, plan, shards, **kwargs):
        stream = MigrationStream(fleet, plan, scan=shards.scan,
                                 put=shards.put, delete=shards.delete,
                                 **kwargs)
        return stream, asyncio.run(stream.run())

    def test_moves_exactly_the_moving_keys(self):
        fleet = controller()
        shards = FakeShards(fleet)
        shards.seed(KEYS)
        plan = fleet.begin_add(2)
        shards.data[2] = {}
        stream, report = self.run_stream(fleet, plan, shards, batch_size=7,
                                         pause_s=0.0)
        moved = moving_keys(plan)
        assert report.keys_moved == len(moved)
        assert sorted(shards.data[2]) == sorted(moved)
        assert all(dst == 2 for dst, _ in shards.put_log)
        assert shards.data[2][moved[0]] == f"v-{moved[0]}"
        assert report.batches >= len(moved) // 7
        assert fleet.counters["keys_moved"] == len(moved)
        assert plan.copied == set(moved)
        # Cleanup erases the sources' shadow copies, nothing else.
        deleted = asyncio.run(stream.cleanup(report.moved))
        assert deleted == len(moved)
        for key in moved:
            src = plan.moving_range_for_key(key).src
            assert key not in shards.data[src]
        survivors = set(KEYS) - set(moved)
        assert survivors <= set(shards.data[0]) | set(shards.data[1])

    def test_empty_source_is_a_clean_noop(self):
        fleet = controller()
        shards = FakeShards(fleet)          # nothing seeded
        plan = fleet.begin_add(2)
        shards.data[2] = {}
        _, report = self.run_stream(fleet, plan, shards)
        assert report.keys_moved == 0 and report.moved == []
        assert report.sources_drained == len({r.src for r in plan.ranges})

    def test_forwarded_keys_are_never_clobbered(self):
        fleet = controller()
        shards = FakeShards(fleet)
        shards.seed(KEYS)
        plan = fleet.begin_add(2)
        shards.data[2] = {}
        fresh = moving_keys(plan)[0]
        fleet.note_forwarded(fresh)
        shards.data[2][fresh] = "forwarded-fresh-value"
        _, report = self.run_stream(fleet, plan, shards)
        assert shards.data[2][fresh] == "forwarded-fresh-value"
        assert report.skipped_forwarded >= 1
        assert fresh not in [k for _, k in report.moved]

    def test_a_failed_forward_fails_the_run(self):
        fleet = controller()
        shards = FakeShards(fleet)
        shards.seed(KEYS)
        plan = fleet.begin_add(2)
        shards.data[2] = {}
        fleet.forward_failed(moving_keys(plan)[0])
        with pytest.raises(MigrationStreamError, match="did not reach"):
            self.run_stream(fleet, plan, shards, pause_s=0.0)

    def test_endpoint_failure_surfaces_with_partial_tally(self):
        fleet = controller()
        shards = FakeShards(fleet)
        shards.seed(KEYS)
        plan = fleet.begin_add(2)
        shards.data[2] = {}
        moved_total = len(moving_keys(plan))
        shards.fail_puts = 1
        stream = MigrationStream(fleet, plan, scan=shards.scan,
                                 put=shards.put, batch_size=4, pause_s=0.0)
        with pytest.raises(MigrationStreamError) as info:
            asyncio.run(stream.run())
        assert info.value.report.keys_moved < moved_total
        assert "ConnectionError" in str(info.value)

    def test_bad_batch_size_rejected(self):
        fleet = controller()
        plan = fleet.begin_add(2)
        with pytest.raises(ReproError):
            MigrationStream(fleet, plan, scan=None, put=None, batch_size=0)
