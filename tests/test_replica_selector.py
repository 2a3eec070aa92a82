"""The load-aware read selector, deterministically.

Load-dependent routing is nondeterministic in production, so the
contract is tested against the scripted half of the harness: a
:class:`FakeLoadView` timeline (``tests/routing_harness.py``) drives
the selector and a :class:`RoutingTrace` replays exactly which replica
every read chose *and why*.  The ladder of honest fallbacks (policy off, single, dead,
migrating, stale) each has a pinned reason; a seeded property sweep
then checks the global invariants -- the selector never *diverts* onto
a dead, draining, migrating, or epoch-retired replica, and with no
trustworthy stats it degrades to strict hash order.  The final class
pins the wire contract: ``--read-policy hash`` is byte-identical to a
router that never heard of the selector.
"""

import asyncio
import random

import pytest

from repro.errors import ConfigError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.router import ShardedRackService, ShardRouter
from repro.service.selector import (
    POLICY_HASH,
    POLICY_P2C,
    REASON_MIGRATING,
    REASON_NO_LIVE,
    REASON_P2C,
    REASON_POLICY_HASH,
    REASON_SINGLE,
    REASON_STALE,
    Decision,
    ReplicaSelector,
    ReplicaStats,
)

from tests import stats_schema
from tests.routing_harness import FakeLoadView, RoutingTrace
from tests.test_migration import base_config, start_sharded

pytestmark = [pytest.mark.routing]


def fresh_view(*nodes, depth=0.0, ewma_us=100.0):
    """A view where every listed node is live with fresh stats."""
    view = FakeLoadView()
    for node in nodes:
        view.set_replica(node, depth=depth, ewma_us=ewma_us)
    return view


class TestScoring:
    def test_picks_the_cheaper_of_the_first_two(self):
        view = fresh_view(0, 1)
        view.set_replica(0, depth=6.0, ewma_us=100.0)   # cost 700
        view.set_replica(1, depth=1.0, ewma_us=100.0)   # cost 200
        selector = ReplicaSelector(view)
        decision = selector.choose("pair:0", [0, 1])
        assert decision.chosen == 1 and decision.reason == REASON_P2C
        assert decision.diverted
        assert decision.scores == ((0, 700.0), (1, 200.0))

    def test_idle_replica_costs_one_service_time_not_zero(self):
        # depth 0 with a 900us EWMA must still lose to depth 0 at 100us.
        view = fresh_view(0, 1)
        view.set_replica(0, depth=0.0, ewma_us=900.0)
        view.set_replica(1, depth=0.0, ewma_us=100.0)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 1 and decision.scores == ((0, 900.0),
                                                            (1, 100.0))

    def test_tie_goes_to_hash_order(self):
        view = fresh_view(0, 1, depth=2.0, ewma_us=150.0)
        decision = ReplicaSelector(view).choose("pair:0", [1, 0])
        assert decision.chosen == 1 and decision.reason == REASON_P2C
        assert not decision.diverted

    def test_penalty_flips_an_otherwise_winning_replica(self):
        # The router's GC view rides through here: the hash owner is
        # idle but both its copies are collecting, so it loses.
        view = fresh_view(0, 1)
        view.set_replica(0, depth=0.0, ewma_us=100.0)
        view.set_replica(1, depth=3.0, ewma_us=100.0)
        selector = ReplicaSelector(view)
        assert selector.choose("pair:0", [0, 1]).chosen == 0
        decision = selector.choose("pair:0", [0, 1],
                                   penalties={0: 1e6})
        assert decision.chosen == 1 and decision.diverted

    def test_only_first_two_live_candidates_race(self):
        # Power of TWO choices: a dirt-cheap third replica is not
        # considered (it exists for membership transitions, not racing).
        view = fresh_view(0, 1, 2)
        view.set_replica(0, depth=5.0, ewma_us=100.0)
        view.set_replica(1, depth=4.0, ewma_us=100.0)
        view.set_replica(2, depth=0.0, ewma_us=1.0)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1, 2])
        assert decision.chosen == 1
        assert [node for node, _ in decision.scores] == [0, 1]


class TestFallbackLadder:
    def test_policy_hash_never_looks_at_the_view(self):
        view = fresh_view(0, 1)
        view.set_replica(0, depth=99.0, ewma_us=9999.0)
        selector = ReplicaSelector(view, policy=POLICY_HASH)
        decision = selector.choose("pair:0", [0, 1])
        assert decision.chosen == 0
        assert decision.reason == REASON_POLICY_HASH
        assert decision.scores == ()

    def test_single_live_candidate_is_taken_without_scoring(self):
        view = fresh_view(0)
        decision = ReplicaSelector(view).choose("pair:0", [0])
        assert decision.chosen == 0 and decision.reason == REASON_SINGLE

    def test_dead_first_candidate_is_skipped(self):
        view = fresh_view(1)
        view.set_replica(0, live=False)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 1 and decision.reason == REASON_SINGLE

    def test_unknown_node_reads_as_dead(self):
        # An epoch-retired rack is simply absent from the live view.
        view = fresh_view(1)
        decision = ReplicaSelector(view).choose("pair:0", [7, 1])
        assert decision.chosen == 1 and decision.reason == REASON_SINGLE

    def test_no_live_candidate_falls_back_to_hash_first(self):
        view = FakeLoadView()
        view.set_replica(0, live=False)
        view.set_replica(1, live=False)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 0 and decision.reason == REASON_NO_LIVE

    def test_draining_contender_forces_hash_order(self):
        view = fresh_view(0, 1)
        view.set_replica(1, ewma_us=1.0, draining=True)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 0 and decision.reason == REASON_MIGRATING

    def test_migrating_node_forces_hash_order(self):
        view = fresh_view(0, 1)
        view.set_replica(1, ewma_us=1.0)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1],
                                                migrating_node=1)
        assert decision.chosen == 0 and decision.reason == REASON_MIGRATING

    def test_stale_stats_force_hash_order(self):
        view = fresh_view(0, 1)
        view.set_replica(1, ewma_us=1.0, age_s=60.0)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 0 and decision.reason == REASON_STALE

    def test_zero_ewma_counts_as_stale(self):
        # "Fresh but never observed" is not a usable latency signal.
        view = fresh_view(0)
        view.set_replica(1, ewma_us=0.0)
        decision = ReplicaSelector(view).choose("pair:0", [0, 1])
        assert decision.chosen == 0 and decision.reason == REASON_STALE

    def test_counters_tally_every_reason(self):
        view = FakeLoadView()
        view.set_replica(0, ewma_us=100.0)
        view.set_replica(1, ewma_us=50.0)
        selector = ReplicaSelector(view)
        selector.choose("a", [0, 1])                       # p2c, diverted
        selector.choose("b", [0])                          # single
        view.set_replica(1, ewma_us=50.0, age_s=60.0)
        selector.choose("c", [0, 1])                       # stale
        view.set_replica(1, ewma_us=50.0, draining=True)
        selector.choose("d", [0, 1])                       # migrating
        view.set_replica(0, live=False)
        view.set_replica(1, live=False)
        selector.choose("e", [0, 1])                       # no-live
        assert selector.counters["decisions"] == 5
        assert selector.counters["p2c_picks"] == 1
        assert selector.counters["p2c_diverted"] == 1
        assert selector.counters["fallbacks"] == 4
        assert selector.counters["stale_fallbacks"] == 1
        assert selector.counters["migrating_fallbacks"] == 1
        assert selector.counters["single_candidate"] == 1
        assert selector.counters["no_live_fallbacks"] == 1
        assert selector.counters["dead_skips"] == 2
        section = selector.stats_section()
        assert section["policy_p2c"] == 1.0
        assert section["decisions"] == 5.0


class TestRoutingTrace:
    def test_scripted_timeline_replays_exactly(self):
        # Replica 1 is overloaded for two decisions, then recovers and
        # wins, then its feed goes stale -- every step pinned by reason.
        view = FakeLoadView()
        view.set_replica(0, depth=2.0, ewma_us=100.0)
        view.script(1, [
            {"depth": 9.0, "ewma_us": 100.0},   # loses to 0
            {"depth": 9.0, "ewma_us": 100.0},   # still losing
            {"depth": 0.0, "ewma_us": 100.0},   # recovered: wins
            {"depth": 0.0, "ewma_us": 100.0, "age_s": 60.0},  # stale
        ])
        trace = RoutingTrace()
        selector = ReplicaSelector(view, trace=trace)
        for _ in range(4):
            selector.choose("pair:7", [0, 1])
            view.advance()
        trace.expect([
            ("pair:7", 0, REASON_P2C),
            ("pair:7", 0, REASON_P2C),
            ("pair:7", 1, REASON_P2C),
            ("pair:7", 0, REASON_STALE),
        ])
        assert trace.chosen_nodes() == [0, 0, 1, 0]
        assert [d.seq for d in trace.decisions()] == [0, 1, 2, 3]

    def test_last_timeline_entry_sticks(self):
        view = FakeLoadView()
        view.script(0, [{"ewma_us": 100.0}, {"ewma_us": 500.0}])
        view.advance(10)
        assert view.replica(0).ewma_us == 500.0

    def test_script_installed_mid_run_starts_at_its_first_entry(self):
        view = FakeLoadView()
        view.set_replica(0, ewma_us=100.0)
        view.advance(5)
        view.script(1, [{"ewma_us": 10.0}, {"ewma_us": 20.0}])
        assert view.replica(1).ewma_us == 10.0
        view.advance()
        assert view.replica(1).ewma_us == 20.0

    def test_expect_names_the_first_divergence(self):
        trace = RoutingTrace()
        trace.record(Decision(0, "k", (0, 1), 0, REASON_P2C))
        with pytest.raises(AssertionError, match="diverges at decision 0"):
            trace.expect([("k", 1, REASON_P2C)])

    def test_expect_flags_length_mismatch(self):
        trace = RoutingTrace()
        trace.record(Decision(0, "k", (0, 1), 0, REASON_P2C))
        with pytest.raises(AssertionError, match="length mismatch"):
            trace.expect([("k", 0, REASON_P2C), ("k", 0, REASON_P2C)])

    def test_trace_is_bounded(self):
        trace = RoutingTrace(maxlen=4)
        for seq in range(10):
            trace.record(Decision(seq, "k", (0,), 0, REASON_SINGLE))
        assert len(trace) == 4
        assert [d.seq for d in trace] == [6, 7, 8, 9]
        trace.clear()
        assert len(trace) == 0

    def test_removed_replica_reads_dead(self):
        view = fresh_view(0, 1)
        view.remove_replica(1)
        stats = view.replica(1)
        assert not stats.live and stats.age_s == float("inf")
        assert view.nodes() == [0]


class TestValidation:
    def test_bad_policy_is_a_config_error(self):
        with pytest.raises(ConfigError, match="read policy"):
            ReplicaSelector(FakeLoadView(), policy="roulette")

    def test_bad_staleness_window_is_a_config_error(self):
        with pytest.raises(ConfigError, match="stale_after_s"):
            ReplicaSelector(FakeLoadView(), stale_after_s=0.0)

    def test_empty_candidates_is_a_config_error(self):
        with pytest.raises(ConfigError, match="at least one candidate"):
            ReplicaSelector(fresh_view(0)).choose("k", [])

    def test_empty_timeline_is_a_config_error(self):
        with pytest.raises(ConfigError, match="at least one step"):
            FakeLoadView().script(0, [])


class TestPropertySweep:
    """Seeded random sweep over view states: the safety invariants.

    Whatever the load data says, the selector must never *divert* a
    read onto a replica that is dead, draining, migrating, stale, or
    missing from the view -- and whenever it cannot score, the choice
    must be exactly what strict hash order (restricted to live
    replicas) would have produced.
    """

    SWEEPS = 2000

    def _random_view(self, rng):
        view = FakeLoadView()
        nodes = rng.sample(range(8), k=rng.randint(1, 5))
        for node in nodes:
            if rng.random() < 0.15:
                continue  # epoch-retired: absent from the view entirely
            view.set_replica(
                node,
                depth=rng.choice([0.0, 1.0, 5.0, 40.0]),
                ewma_us=rng.choice([0.0, 10.0, 100.0, 5000.0]),
                age_s=rng.choice([0.0, 0.1, 1.0, 60.0]),
                live=rng.random() > 0.2,
                draining=rng.random() < 0.15,
            )
        return view, nodes

    def test_divert_targets_are_always_safe(self):
        rng = random.Random(20260808)
        diverted = 0
        for _ in range(self.SWEEPS):
            view, nodes = self._random_view(rng)
            candidates = sorted(nodes, key=lambda n: rng.random())
            migrating = rng.choice([None] + candidates)
            selector = ReplicaSelector(view, stale_after_s=0.25)
            decision = selector.choose("k", candidates,
                                       migrating_node=migrating)
            assert decision.chosen in candidates
            stats = view.replica(decision.chosen)
            live_order = [n for n in candidates if view.replica(n).live]
            if decision.reason == REASON_NO_LIVE:
                # Blind: hash-first, exactly like the plain router.
                assert decision.chosen == candidates[0]
            elif decision.chosen != live_order[0]:
                diverted += 1
                # Leaving strict (live-restricted) hash order is only
                # ever a scored p2c pick, and only onto a live, fresh,
                # non-draining, non-migrating replica.
                assert decision.reason == REASON_P2C
                assert stats.live and not stats.draining
                assert decision.chosen != migrating
                assert stats.age_s <= 0.25 and stats.ewma_us > 0.0
            else:
                # Every fallback (and every non-diverting p2c pick) is
                # the first live replica in strict hash order -- what
                # the plain router would have picked.
                assert stats.live
                assert decision.chosen == live_order[0]
        assert diverted > 0, "sweep never exercised the divert path"

    def test_all_stale_degrades_to_strict_hash_order(self):
        rng = random.Random(7)
        for _ in range(500):
            view = FakeLoadView()
            candidates = rng.sample(range(6), k=rng.randint(2, 4))
            for node in candidates:
                view.set_replica(node, depth=rng.random() * 10,
                                 ewma_us=rng.random() * 1000,
                                 age_s=1.0 + rng.random())
            decision = ReplicaSelector(view).choose("k", candidates)
            assert decision.chosen == candidates[0]
            assert decision.reason == REASON_STALE


class TestRouterIntegration:
    """The selector wired into the in-process router, over real TCP."""

    def test_p2c_router_serves_and_reports(self):
        trace = RoutingTrace()

        async def scenario():
            service = await start_sharded(racks=2, read_policy=POLICY_P2C,
                                          routing_trace=trace)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    hello = await c.hello()
                    for pair in range(4):
                        await c.write(pair, lpn=pair)
                    reads = [await c.read(pair % 4, lpn=pair % 4)
                             for pair in range(12)]
                    stats = await c.stats()
                return hello, reads, stats
            finally:
                await service.stop()

        hello, reads, stats = asyncio.run(scenario())
        assert hello["read_policy"] == POLICY_P2C
        assert all(r["ok"] for r in reads)
        stats_schema.validate_stats(stats, client=True)
        routing = stats["routing"]
        assert routing["policy_p2c"] == 1.0
        assert routing["decisions"] == 12.0
        assert routing["decisions"] == (routing["p2c_picks"]
                                        + routing["fallbacks"])
        assert set(routing["replicas"]) == {"0", "1"}
        # Every wire read left a replayable decision behind it.
        assert len(trace) == 12
        assert all(d.epoch == 0 for d in trace)

    def test_router_rejects_unknown_policy(self):
        with pytest.raises(ConfigError, match="read_policy"):
            ShardRouter.from_config(base_config(), 2,
                                    read_policy="roulette",
                                    precondition=False)


class TestHashModeByteIdentical:
    """``--read-policy hash`` must be invisible on the wire.

    The same frame sequence is sent to a default router and to one
    built with an explicit ``read_policy="hash"``.  Frames that carry
    no timing (hello) must come back as the same raw bytes; frames with
    measured latencies (the sim pump rides wall time, so latency values
    jitter between *any* two runs, policy aside) must agree on every
    other field -- same keys, same placement, same payloads -- and the
    stats body must have the exact same shape, with no routing section
    in either.
    """

    OPS = [
        {"type": "hello", "v": protocol.PROTOCOL_VERSION, "id": 1},
        {"type": "write", "pair": 0, "lpn": 3, "id": 2},
        {"type": "write", "pair": 3, "lpn": 1, "id": 3},
        {"type": "read", "pair": 0, "lpn": 3, "id": 4},
        {"type": "read", "pair": 3, "lpn": 1, "id": 5},
        {"type": "put", "key": "alpha", "value": "1", "id": 6},
        {"type": "get", "key": "alpha", "id": 7},
        {"type": "scan", "start": "", "count": 8, "id": 8},
        {"type": "stats", "id": 9},
    ]

    async def _run_wire(self, **router_kwargs):
        # The GC view sync rides a wall timer; its commit counter would
        # differ run to run, so both runs pin it off -- the comparison
        # is about the read policy, not wall-clock jitter.
        router_kwargs.setdefault("gc_sync_s", 0.0)
        service = await start_sharded(racks=2, **router_kwargs)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            raw = []
            splitter = protocol.FrameSplitter(protocol.DEFAULT_MAX_FRAME_BYTES)
            for op in self.OPS:
                writer.write(protocol.encode_frame(op))
                await writer.drain()
                while True:
                    frames = splitter.feed(await reader.read(65536))
                    if frames:
                        raw.extend(bytes(f) for f in frames)
                        break
            writer.close()
            return raw
        finally:
            await service.stop()

    @staticmethod
    def _shape(value):
        """The payload with every number replaced by a type marker --
        what is left of a response once wall-jittery timings are
        ignored: keys, structure, strings, booleans."""
        if isinstance(value, dict):
            return {k: TestHashModeByteIdentical._shape(v)
                    for k, v in sorted(value.items())}
        if isinstance(value, list):
            return [TestHashModeByteIdentical._shape(v) for v in value]
        if isinstance(value, float):
            return "float"
        return value

    def test_default_and_explicit_hash_are_indistinguishable(self):
        import json

        async def scenario():
            default = await self._run_wire()
            explicit = await self._run_wire(read_policy=POLICY_HASH)
            return default, explicit

        default, explicit = asyncio.run(scenario())
        assert len(default) == len(explicit) == len(self.OPS)
        # hello carries no timing: raw bytes must match exactly.
        assert default[0] == explicit[0]
        for op, d_raw, e_raw in zip(self.OPS[1:], default[1:], explicit[1:]):
            d, e = json.loads(d_raw[4:]), json.loads(e_raw[4:])
            assert sorted(d) == sorted(e), op
            if op["type"] == "stats":
                assert self._shape(d) == self._shape(e)
                continue
            for field in d:
                if field in ("latency_us", "storage_us"):
                    continue
                assert d[field] == e[field], (op, field)
        # And neither run grew the payloads: the routing section (and
        # the hello read_policy field) exist only under p2c.
        stats = json.loads(default[-1][4:])
        hello = json.loads(default[0][4:])
        assert "routing" not in stats
        assert "read_policy" not in hello
