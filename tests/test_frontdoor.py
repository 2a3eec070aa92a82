"""The front door, checked twice: table-driven with no sockets (every
stage's verdict and the completion rule), then over the wire -- one
scripted sequence against all three deployment shapes must read the
same, error text included.
"""

import ast
import asyncio
import pathlib

import pytest

from repro.api import RackConfig, SystemType
from repro.errors import ConfigError
from repro.service import frontdoor, protocol
from repro.service.frontdoor import (
    ADMIN,
    CACHE_HIT_LATENCY_US,
    STATS,
    Conn,
    FrontDoor,
    Ticket,
)
from repro.service.membership import MembershipBusy, MembershipError
from repro.service.qos import QosScheduler, TenantSpec
from repro.service.readcache import ReadCache
from repro.service.router import (
    ShardedRackService,
    ShardProxy,
    ShardRouter,
    launch_backends,
    shutdown_backends,
)
from repro.service.server import RackService
from tests.test_shard_proxy import BACKEND_ARGS

pytestmark = pytest.mark.qos

EPOCH = 5


def tenancy():
    """Two declared tenants: ``gold`` fills the cache, ``metered`` gets
    one request and is then over its rate for the rest of the test."""
    qos = QosScheduler([
        TenantSpec("gold", weight=2, slo_ms=50, cache_share=2),
        TenantSpec("metered", rate_per_sec=0.001, burst=1),
    ])
    return qos, ReadCache(256, shares=qos.cache_shares())


def make_door(qos=None, cache=None):
    return FrontDoor(
        qos, cache, epoch=lambda: EPOCH,
        describe=lambda: (["raw", "kv"], {"racks": 1, "epoch": EPOCH}),
    )


def conn_of(tenant=None):
    conn = Conn()
    if tenant is not None:
        conn.tenant = tenant
    return conn


def verdict(out):
    """A row's comparable outcome: the error code, ``"ok"`` for a
    success reply, the control marker, or ``"pass"`` for a ticket."""
    if isinstance(out, dict):
        return "ok" if out["ok"] else out["error"]
    if isinstance(out, Ticket):
        return "pass"
    return out


# (label, request, tenant bound on the connection, draining, expected)
ADMIT_ROWS = [
    ("bad version", {"type": "ping", "v": 99}, None, False,
     protocol.UNSUPPORTED_VERSION),
    ("bad version outranks draining", {"type": "get", "key": "k", "v": 0},
     None, True, protocol.UNSUPPORTED_VERSION),
    ("hello, tenant not a string", {"type": "hello", "tenant": 7}, None,
     False, protocol.BAD_REQUEST),
    ("hello, empty tenant", {"type": "hello", "tenant": ""}, None, False,
     protocol.BAD_REQUEST),
    ("hello, unknown tenant", {"type": "hello", "tenant": "nobody"}, None,
     False, protocol.BAD_REQUEST),
    ("hello, declared tenant", {"type": "hello", "tenant": "gold"}, None,
     False, "ok"),
    ("hello, no tenant", {"type": "hello"}, None, False, "ok"),
    ("ping", {"type": "ping"}, None, False, "ok"),
    ("ping while draining", {"type": "ping"}, None, True, "ok"),
    ("stats", {"type": "stats"}, None, True, STATS),
    ("admin", {"type": "admin", "op": "status"}, None, True, ADMIN),
    ("stale epoch", {"type": "get", "key": "k", "epoch": EPOCH - 1}, None,
     False, protocol.WRONG_SHARD),
    ("stale epoch outranks draining",
     {"type": "read", "pair": 0, "lpn": 0, "epoch": 0}, None, True,
     protocol.WRONG_SHARD),
    ("current epoch", {"type": "get", "key": "k", "epoch": EPOCH}, None,
     False, "pass"),
    ("draining", {"type": "put", "key": "k", "value": "v"}, None, True,
     protocol.SHUTTING_DOWN),
    ("raw read", {"type": "read", "pair": 0, "lpn": 1}, "gold", False,
     "pass"),
    ("unknown type is the dispatcher's to refuse", {"type": "frobnicate"},
     None, False, "pass"),
]


class TestAdmitTable:
    @pytest.mark.parametrize(
        "request_, tenant, draining, expected",
        [row[1:] for row in ADMIT_ROWS], ids=[row[0] for row in ADMIT_ROWS],
    )
    def test_row(self, request_, tenant, draining, expected):
        door = make_door(*tenancy())
        out = door.admit(dict(request_, id=7), conn_of(tenant), draining)
        assert verdict(out) == expected
        if isinstance(out, dict):
            assert out["id"] == 7

    def test_hello_binds_the_tenant_and_advertises_qos(self):
        door = make_door(*tenancy())
        conn = Conn()
        refused = door.admit({"type": "hello", "tenant": "nobody"}, conn,
                             False)
        assert "unknown tenant 'nobody'" in refused["message"]
        assert conn.tenant == "default"
        hello = door.admit({"type": "hello", "tenant": "gold"}, conn, False)
        assert conn.tenant == "gold"
        assert hello["tenant"] == "gold" and hello["epoch"] == EPOCH
        assert hello["capabilities"] == ["kv", "qos", "raw"]
        # Without a scheduler any tenant name binds and "qos" is absent.
        plain = make_door().admit({"type": "hello", "tenant": "anyone"},
                                  conn, False)
        assert plain["capabilities"] == ["kv", "raw"]
        assert conn.tenant == "anyone"

    def test_qos_gate_sheds_the_metered_tenant(self):
        qos, cache = tenancy()
        door = make_door(qos, cache)
        conn = conn_of("metered")
        get = {"type": "get", "key": "k", "id": 1}
        assert verdict(door.admit(get, conn, False)) == "pass"
        shed = door.admit(get, conn, False)
        assert shed["error"] == protocol.BUSY
        assert shed["message"] == "tenant 'metered' is over its QoS budget"
        # Control traffic is never metered.
        assert verdict(door.admit({"type": "ping"}, conn, False)) == "ok"
        assert qos.stats_section()["metered"]["shed_rate_limited"] == 1.0

    def test_cache_hit_is_answered_and_scored(self):
        qos, cache = tenancy()
        door = make_door(qos, cache)
        conn = conn_of("gold")
        _, _, token = cache.lookup("hot", "gold")
        cache.fill("hot", "v1", "gold", token)
        hit = door.admit({"type": "get", "key": "hot", "id": 3}, conn, False)
        assert hit == {"ok": True, "id": 3, "value": "v1", "found": True,
                       "latency_us": CACHE_HIT_LATENCY_US}
        gold = qos.stats_section()["gold"]
        assert (gold["completed"], gold["inflight"],
                gold["slo_violations"]) == (1.0, 0.0, 0.0)

    def test_miss_carries_a_fill_token_only_for_a_cached_get(self):
        door = make_door(*tenancy())
        conn = conn_of("gold")
        miss = door.admit({"type": "get", "key": "cold"}, conn, False)
        assert (miss.rtype, miss.key, miss.tenant) == ("get", "cold", "gold")
        assert miss.fill_token is not None
        put = door.admit({"type": "put", "key": "cold", "value": "v"},
                         conn, False)
        assert put.key == "cold" and put.fill_token is None
        read = door.admit({"type": "read", "pair": 0, "lpn": 0}, conn, False)
        assert read.key is None and read.fill_token is None
        bad_key = door.admit({"type": "get", "key": 7}, conn, False)
        assert bad_key.key is None and bad_key.fill_token is None


class TestCompletionRule:
    def _get(self, door):
        return door.admit({"type": "get", "key": "k"}, conn_of("gold"),
                          False)

    def test_fill_only_on_found_with_a_live_token(self):
        qos, cache = tenancy()
        door = make_door(qos, cache)
        self._get(door).complete({"found": False, "latency_us": 9.0})
        assert cache.fills == 0
        self._get(door).complete(None)              # errored read
        assert cache.fills == 0
        raced = self._get(door)
        cache.invalidate("k")                       # a write got in between
        raced.complete({"found": True, "value": "old", "latency_us": 9.0})
        assert (cache.fills, cache.fill_races) == (0, 1)
        self._get(door).complete(
            {"found": True, "value": "v", "latency_us": 9.0})
        assert cache.fills == 1
        assert verdict(self._get(door)) == "ok"     # now a hit

    @pytest.mark.parametrize("rtype", ["put", "del"])
    @pytest.mark.parametrize("result", [
        {"latency_us": 80.0}, None,
    ], ids=["success", "timeout-error-or-cancel"])
    def test_a_submitted_write_invalidates_on_every_outcome(self, rtype,
                                                             result):
        qos, cache = tenancy()
        door = make_door(qos, cache)
        self._get(door).complete(
            {"found": True, "value": "v1", "latency_us": 9.0})
        write = door.admit({"type": rtype, "key": "k", "value": "v2"},
                           conn_of("gold"), False)
        write.submitted()
        write.complete(result)
        assert cache.entries == 0 and cache.invalidations == 1
        assert verdict(self._get(door)) == "pass"   # a miss again

    def test_a_write_that_was_never_submitted_invalidates_nothing(self):
        qos, cache = tenancy()
        door = make_door(qos, cache)
        self._get(door).complete(
            {"found": True, "value": "v1", "latency_us": 9.0})
        door.admit({"type": "put", "key": "k", "value": "v2"},
                   conn_of("gold"), False)          # shed downstream
        assert cache.entries == 1 and cache.invalidations == 0

    def test_qos_ledger(self):
        qos, cache = tenancy()
        door = make_door(qos, cache)

        def gold():
            return qos.stats_section()["gold"]

        ticket = door.admit({"type": "read", "pair": 0, "lpn": 0},
                            conn_of("gold"), False)
        assert gold()["inflight"] == 0.0            # admitted, not yet sent
        ticket.submitted()
        assert gold()["inflight"] == 1.0
        ticket.complete({"latency_us": 900.0})      # 0.9 ms < 50 ms SLO
        assert (gold()["inflight"], gold()["completed"],
                gold()["slo_violations"]) == (0.0, 1.0, 0.0)
        slow = door.admit({"type": "read", "pair": 0, "lpn": 0},
                          conn_of("gold"), False)
        slow.submitted()
        slow.complete({"latency_us": 900.0}, 60_000.0)   # relay says 60 ms
        assert gold()["slo_violations"] == 1.0
        lost = door.admit({"type": "read", "pair": 0, "lpn": 0},
                          conn_of("gold"), False)
        lost.submitted()
        lost.complete(None)
        assert (gold()["completed"], gold()["slo_violations"]) == (3.0, 2.0)

    def test_a_plain_door_tracks_nothing(self):
        door = make_door()
        assert not door.tracks_completions
        assert make_door(*tenancy()).tracks_completions
        ticket = door.admit({"type": "put", "key": "k", "value": "v"},
                            Conn(), False)
        ticket.submitted()
        ticket.complete(None)                       # nothing to do, no error


class _Done:
    """The slice of a future :func:`frontdoor.admin_outcome` reads."""

    def __init__(self, result=None, exc=None, cancelled=False):
        self._result, self._exc, self._cancelled = result, exc, cancelled

    def cancelled(self):
        return self._cancelled

    def exception(self):
        return self._exc

    def result(self):
        return self._result


class TestAdmin:
    @staticmethod
    def _begin(request, mutate=lambda op, request, knobs: None):
        return frontdoor.begin_admin(
            dict(request, type="admin", id=4),
            lambda: {"epoch": EPOCH, "racks": [0]}, mutate,
        )

    def test_status_and_unsupported_ops(self):
        assert self._begin({"op": "status"}) == {
            "ok": True, "id": 4, "epoch": EPOCH, "racks": [0]}
        assert self._begin({"op": "fleet_status"})["ok"]
        for request, op in (({}, None), ({"op": "reboot"}, "reboot")):
            refused = self._begin(request)
            assert refused["error"] == protocol.BAD_REQUEST
            assert refused["message"] == (
                f"unsupported admin op {op!r} for this deployment")

    def test_knobs_are_parsed_once_and_coerced(self):
        seen = []

        def mutate(op, request, knobs):
            seen.append((op, knobs))
            return "the awaitable"

        out = self._begin({"op": "add_rack", "batch_size": "8",
                           "pause_s": 0, "max_attempts": 2.0}, mutate)
        assert out == "the awaitable"
        assert seen == [("add_rack", {"batch_size": 8, "pause_s": 0.0,
                                      "max_attempts": 2})]
        assert isinstance(seen[0][1]["pause_s"], float)
        bad = self._begin({"op": "add_rack", "batch_size": "many"}, mutate)
        assert bad["error"] == protocol.BAD_REQUEST
        assert bad["message"].startswith("ValueError:")

        def missing_operand(op, request, knobs):
            return int(request["rack"])

        bad = self._begin({"op": "drain_rack"}, missing_operand)
        assert (bad["error"], bad["message"]) == (
            protocol.BAD_REQUEST, "KeyError: 'rack'")

    @pytest.mark.parametrize("done, code, message", [
        (_Done(cancelled=True), protocol.SHUTTING_DOWN,
         "admin op cancelled at shutdown"),
        (_Done(exc=MembershipBusy("one at a time")), protocol.BUSY,
         "one at a time"),
        (_Done(exc=ConfigError("rack 9 is not a live backend")),
         protocol.BAD_REQUEST,
         "ConfigError: rack 9 is not a live backend"),
        (_Done(exc=MembershipError("draining rack 1 failed")),
         protocol.INTERNAL,
         "membership change failed: draining rack 1 failed"),
        (_Done(exc=ConnectionRefusedError("no backend")), protocol.INTERNAL,
         "membership change failed: no backend"),
        (_Done(exc=RuntimeError("boom")), protocol.INTERNAL,
         "RuntimeError: boom"),
    ], ids=["cancelled", "busy", "bad-operand", "membership", "os", "other"])
    def test_outcome_to_wire_code(self, done, code, message):
        reply = frontdoor.admin_outcome(done, 4)
        assert (reply["ok"], reply["error"], reply["message"],
                reply["id"]) == (False, code, message, 4)

    def test_success_outcome(self):
        reply = frontdoor.admin_outcome(_Done({"rack": 2, "epoch": 1}), 4)
        assert reply == {"ok": True, "id": 4, "rack": 2, "epoch": 1}


def test_frontdoor_is_sans_io():
    tree = ast.parse(pathlib.Path(frontdoor.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"asyncio", "socket", "selectors", "ssl"}


# ------------------------------------------------------- wire-level parity


def small_config() -> RackConfig:
    return RackConfig(system=SystemType("rackblox"), num_servers=2,
                      num_pairs=2, seed=11)


def _json(obj):
    return protocol.encode_frame(obj)


def _bin(obj):
    frame = protocol.BIN_CODEC.try_encode(obj)
    assert frame is not None, obj
    return frame


#: One connection's script: ``(label, frame)``.  Ids are unique so a
#: response can only be matched to its own request.
GOLD_SCRIPT = [
    ("bad version", _json({"type": "ping", "v": 99, "id": 1})),
    ("hello, tenant not a string",
     _json({"type": "hello", "tenant": 7, "id": 2})),
    ("hello, unknown tenant",
     _json({"type": "hello", "tenant": "nobody", "id": 3})),
    ("hello, declared tenant",
     _json({"type": "hello", "tenant": "gold", "id": 4})),
    ("ping", _json({"type": "ping", "id": 5})),
    ("admin without op", _json({"type": "admin", "id": 6})),
    ("admin unknown op", _json({"type": "admin", "op": "reboot", "id": 7})),
    ("admin status", _json({"type": "admin", "op": "status", "id": 8})),
    ("stale epoch",
     _json({"type": "get", "key": "K", "epoch": 7, "id": 9})),
    ("json put", _json({"type": "put", "key": "K", "value": "v1",
                        "id": 10})),
    ("json get, miss", _json({"type": "get", "key": "K", "id": 11})),
    ("json get, hit", _json({"type": "get", "key": "K", "id": 12})),
    ("bin put", _bin({"type": "put", "key": "B", "value": "v1", "id": 13})),
    ("bin get, miss", _bin({"type": "get", "key": "B", "id": 14})),
    ("bin get, hit", _bin({"type": "get", "key": "B", "id": 15})),
    ("json put invalidates",
     _json({"type": "put", "key": "B", "value": "v2", "id": 16})),
    ("bin get, fresh", _bin({"type": "get", "key": "B", "id": 17})),
    ("json write", _json({"type": "write", "pair": 1, "lpn": 3, "id": 18})),
    ("bin read", _bin({"type": "read", "pair": 1, "lpn": 3, "id": 19})),
]
METERED_SCRIPT = [
    ("hello", _json({"type": "hello", "tenant": "metered", "id": 1})),
    ("first get passes", _json({"type": "get", "key": "K", "id": 2})),
    ("json get, shed", _json({"type": "get", "key": "K", "id": 3})),
    ("bin get, shed", _bin({"type": "get", "key": "K", "id": 4})),
    ("ping is never metered", _json({"type": "ping", "id": 5})),
]
DRAINING_SCRIPT = [
    ("json get while draining", _json({"type": "get", "key": "K", "id": 1})),
    ("bin read while draining",
     _bin({"type": "read", "pair": 0, "lpn": 0, "id": 2})),
    ("ping while draining", _json({"type": "ping", "id": 3})),
]


async def _run_script(port, script):
    """Send one frame at a time; ``(label, ok, code, message, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    try:
        for label, frame in script:
            writer.write(frame)
            response = await asyncio.wait_for(
                protocol.read_frame(reader), timeout=30)
            out.append((label, response["ok"], response.get("error"),
                        response.get("message"), response))
    finally:
        writer.close()
    return out


async def _drive(service):
    """The three scripts against one started front-end (anything with
    ``port`` and ``_draining``)."""
    gold = await _run_script(service.port, GOLD_SCRIPT)
    metered = await _run_script(service.port, METERED_SCRIPT)
    service._draining = True
    try:
        draining = await _run_script(service.port, DRAINING_SCRIPT)
    finally:
        service._draining = False
    return gold + metered + draining


async def _single_rack():
    qos, cache = tenancy()
    service = RackService(small_config(), port=0, chunk_us=2000.0,
                          qos=qos, read_cache=cache)
    await service.start()
    try:
        return await _drive(service), cache
    finally:
        await service.stop()


async def _sharded():
    qos, cache = tenancy()
    router = ShardRouter.from_config(small_config(), racks=2,
                                     precondition=False, chunk_us=2000.0)
    service = ShardedRackService(router, port=0, qos=qos, read_cache=cache)
    await service.start()
    try:
        return await _drive(service), cache
    finally:
        await service.stop()


async def _proxy():
    qos, cache = tenancy()
    procs, endpoints = await launch_backends(2, BACKEND_ARGS, seed=11)
    proxy = ShardProxy(endpoints, port=0, pairs_per_rack=2,
                       qos=qos, read_cache=cache)
    try:
        await proxy.start()
        return await _drive(proxy), cache
    finally:
        await proxy.stop()
        await shutdown_backends(procs)


@pytest.mark.shard
@pytest.mark.slow
class TestThreeShapesOneFrontDoor:
    def test_same_script_same_answers(self):
        async def scenario():
            return (await _single_rack(), await _sharded(), await _proxy())

        shapes = dict(zip(("single", "sharded", "proxy"),
                          asyncio.run(scenario())))
        rows = {name: [row[:4] for row in trace]
                for name, (trace, _) in shapes.items()}
        assert rows["sharded"] == rows["single"]
        assert rows["proxy"] == rows["single"]

        # ...and the answers are the right ones, not merely equal.
        expected = {
            "bad version": protocol.UNSUPPORTED_VERSION,
            "hello, tenant not a string": protocol.BAD_REQUEST,
            "hello, unknown tenant": protocol.BAD_REQUEST,
            "admin without op": protocol.BAD_REQUEST,
            "admin unknown op": protocol.BAD_REQUEST,
            "stale epoch": protocol.WRONG_SHARD,
            "json get, shed": protocol.BUSY,
            "bin get, shed": protocol.BUSY,
            "json get while draining": protocol.SHUTTING_DOWN,
            "bin read while draining": protocol.SHUTTING_DOWN,
        }
        for label, ok, code, message in rows["single"]:
            assert code == expected.get(label), (label, code, message)
            assert ok == (label not in expected)

        for name, (trace, cache) in shapes.items():
            body = {row[0]: row[4] for row in trace}
            for miss in ("json get, miss", "bin get, miss"):
                assert body[miss]["latency_us"] != CACHE_HIT_LATENCY_US, name
            for hit in ("json get, hit", "bin get, hit"):
                assert body[hit]["latency_us"] == CACHE_HIT_LATENCY_US, name
                assert body[hit]["value"] == "v1", name
            assert body["bin get, fresh"]["value"] == "v2", name
            assert "qos" in body["hello, declared tenant"]["capabilities"]
            assert body["hello, declared tenant"]["tenant"] == "gold"
            # gold's two, plus metered's one admitted get of cached "K"
            assert cache.hits == 3 and cache.invalidations == 1, name
