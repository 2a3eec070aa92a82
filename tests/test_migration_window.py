"""One migration window, two deployment shapes, the same answers.

A scripted sequence runs against the in-process fleet
(:class:`ShardedRackService`) and against a :class:`ShardProxy` over
in-process :class:`RackService` backends: seed keys, start a slow add
(or drain), then -- while the window is open -- put and delete moving and
non-moving keys, including a put the old owner's admission sheds and a
put whose forward leg fails, read everything, let the change cut over
and read again.  Both shapes must answer identically; no shed write may
ever be visible; every acked value (or a later one) must be readable
after the cutover.

Also here: a request that completes without simulated work (a scan
past the last key) is answered, and a proxy add whose stream pages end
exactly on ``batch_size`` completes.
"""

import asyncio

import pytest

from repro.cluster.config import RackConfig, SystemType
from repro.errors import ConfigError
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.bridge import SimTimeBridge
from repro.service.client import ServiceClient, ServiceError
from repro.service.membership import FleetController
from repro.service.router import ShardedRackService, ShardProxy, ShardRouter
from repro.service.server import RackService
from repro.service.shard import HashRing

pytestmark = [pytest.mark.fleet, pytest.mark.shard]

KEYS = [f"k{i:05d}" for i in range(24)]
SEED_VALUE = "v0"
GREEDY = "greedy"
FORWARD_FAILS = "v-forward-fails"


def config(index=0) -> RackConfig:
    return RackConfig(system=SystemType("rackblox"), num_servers=2,
                      num_pairs=2, seed=11 + index)


class ShedOne(AdmissionController):
    """Admits every client but one -- whose token bucket is drained."""

    def __init__(self, victim: str) -> None:
        super().__init__()
        self.victim = victim

    def try_admit(self, client, inflight, now=None):
        if client == self.victim:
            self.shed_rate_limited += 1
            return False
        return super().try_admit(client, inflight, now)


def fail_one_put(bridge: SimTimeBridge, value: str) -> None:
    """The next put of ``value`` at ``bridge`` is refused, once."""
    real = bridge.submit_put

    def submit_put(key, put_value, client="live", then=None):
        if put_value == value:
            bridge.submit_put = real
            raise ConfigError("injected forward failure")
        return real(key, put_value, client, then=then)

    bridge.submit_put = submit_put


ADD, DRAIN = "add", "drain"


def window_plan(change=ADD):
    """The plan of adding rack 2 to racks 0 and 1, or of draining rack 0
    into rack 1 (both shapes build the same default ring)."""
    fleet = FleetController(HashRing(range(2)))
    plan = fleet.begin_add(2) if change == ADD else fleet.begin_drain(0)
    return fleet, plan


def window_keys(change=ADD):
    """``(moving, staying)`` keys of the change, and each key's old
    owner."""
    fleet, plan = window_plan(change)
    moving = [k for k in KEYS if plan.moving_range_for_key(k) is not None]
    staying = [k for k in KEYS if k not in moving]
    return moving, staying, {k: fleet.read_owner(k) for k in KEYS}


class InProc:
    """The in-process fleet: two rack shards behind one listener."""

    async def start(self):
        self.router = ShardRouter.from_config(
            config(), 2, precondition=False, chunk_us=2000.0)
        self.service = ShardedRackService(self.router, port=0)
        await self.service.start()
        self.port = self.service.port
        self.fleet = self.router.fleet
        self.add_options = {}

    def rack(self, node):
        return self.router._by_index[node]

    async def joining_bridge(self):
        while 2 not in self.router._by_index:
            await asyncio.sleep(0.001)
        return self.router._by_index[2].bridge

    async def stop(self):
        await self.service.stop()


class Proxy:
    """A proxy over three in-process single-rack backends (the third
    joins with the add, as an operator-started process would)."""

    async def start(self):
        self.backends = []
        for index in range(3):
            bridge = SimTimeBridge(config(index), chunk_us=2000.0,
                                   precondition=False)
            backend = RackService(config(index), port=0, bridge=bridge)
            await backend.start()
            self.backends.append(backend)
        self.proxy = ShardProxy(
            [("127.0.0.1", b.port) for b in self.backends[:2]],
            port=0, pairs_per_rack=2)
        await self.proxy.start()
        self.port = self.proxy.port
        self.fleet = self.proxy.fleet
        self.add_options = {"host": "127.0.0.1",
                            "port": self.backends[2].port}

    def rack(self, node):
        return self.backends[node]

    async def joining_bridge(self):
        return self.backends[2].bridge

    async def stop(self):
        await self.proxy.stop()
        for backend in self.backends:
            await backend.stop()


async def answer(call):
    """``(ok, error code, found, value)`` of one request."""
    try:
        response = await call
    except ServiceError as exc:
        return (False, exc.code, None, None)
    return (True, None, response.get("found"), response.get("value"))


async def run_window_script(shape, change=ADD):
    moving, staying, owner = window_keys(change)
    m_put, m_del, m_shed, m_fail = moving[:4]
    s_put, s_del = staying[:2]
    await shape.start()
    try:
        # The old owner of m_shed has drained the greedy client's bucket;
        # the joining rack's bucket would be fresh.
        shape.rack(owner[m_shed]).admission = ShedOne(GREEDY)
        user = ServiceClient("127.0.0.1", shape.port, "user")
        greedy = ServiceClient("127.0.0.1", shape.port, GREEDY)
        admin = ServiceClient("127.0.0.1", shape.port, "admin")
        async with user, greedy, admin:
            for key in KEYS:
                await user.put(key, SEED_VALUE)
            if change == ADD:
                add = asyncio.ensure_future(admin.fleet_add_rack(
                    batch_size=2, pause_s=0.05, **shape.add_options))
                destination = await shape.joining_bridge()
            else:
                add = asyncio.ensure_future(admin.fleet_drain_rack(
                    0, batch_size=2, pause_s=0.05))
                destination = shape.rack(1).bridge
            fail_one_put(destination, FORWARD_FAILS)
            while not shape.fleet.migrating:
                await asyncio.sleep(0.001)
            assert shape.fleet.plan.ranges == window_plan(change)[1].ranges
            rows = [
                ("put moving", await answer(user.put(m_put, "w1"))),
                ("put staying", await answer(user.put(s_put, "w1"))),
                ("delete moving", await answer(user.delete(m_del))),
                ("delete staying", await answer(user.delete(s_del))),
                ("put shed by the old owner",
                 await answer(greedy.put(m_shed, "SHED"))),
                ("put whose forward fails",
                 await answer(user.put(m_fail, FORWARD_FAILS))),
            ]
            probes = (m_put, s_put, m_del, s_del, m_shed, m_fail)
            for key in probes:
                rows.append((f"window get {key}",
                             await answer(user.get(key))))
            assert shape.fleet.migrating, "the window closed mid-script"
            report = await asyncio.wait_for(add, 30.0)
            for key in KEYS:
                rows.append((f"after get {key}",
                             await answer(user.get(key))))
        return rows, report, (m_put, s_put, m_del, s_del, m_shed, m_fail)
    finally:
        await shape.stop()


def check_same_answers(change):
    async def scenario():
        return (await run_window_script(InProc(), change),
                await run_window_script(Proxy(), change))

    (inproc, report, keys), (proxy, proxy_report, _) = \
        asyncio.run(scenario())
    assert proxy == inproc
    m_put, s_put, m_del, s_del, m_shed, m_fail = keys
    answers = dict(inproc)
    ok = (True, None, None, None)
    assert answers["put moving"] == ok
    assert answers["put staying"] == ok
    assert answers["delete moving"] == ok
    assert answers["delete staying"] == ok
    assert answers["put shed by the old owner"] == \
        (False, protocol.BUSY, None, None)
    # The forward failed after the old owner acked: the attempt
    # failed instead, and the retry re-streamed the acked value.
    assert answers["put whose forward fails"] == ok
    for report_of in (report, proxy_report):
        assert report_of["epoch"] == 1 and report_of["attempts"] == 2
    expected = {key: SEED_VALUE for key in KEYS}
    expected.update({m_put: "w1", s_put: "w1", m_del: None,
                     s_del: None, m_fail: FORWARD_FAILS})
    for when in ("window", "after"):
        for key in (keys if when == "window" else KEYS):
            value = expected[key]
            assert answers[f"{when} get {key}"] == \
                (True, None, value is not None, value), (when, key)


class TestOneWindowTwoShapes:
    def test_same_script_same_answers(self):
        check_same_answers(ADD)

    def test_same_script_same_answers_for_a_drain(self):
        check_same_answers(DRAIN)


class TestWorkFreeRequests:
    """A scan past the last key selects nothing and completes without
    simulated work; its answer must still leave the server."""

    @pytest.mark.parametrize("shape", ["single", "inproc", "proxy"])
    def test_an_empty_scan_is_answered(self, shape):
        async def scenario():
            services = []
            if shape == "single":
                front = RackService(config(), port=0, bridge=SimTimeBridge(
                    config(), chunk_us=2000.0, precondition=False))
            elif shape == "inproc":
                front = ShardedRackService(ShardRouter.from_config(
                    config(), 2, precondition=False, chunk_us=2000.0),
                    port=0)
            else:
                for index in range(2):
                    services.append(RackService(
                        config(index), port=0, bridge=SimTimeBridge(
                            config(index), chunk_us=2000.0,
                            precondition=False)))
                    await services[-1].start()
                front = ShardProxy([("127.0.0.1", s.port) for s in services],
                                   port=0, pairs_per_rack=2)
            await front.start()
            try:
                async with ServiceClient("127.0.0.1", front.port) as c:
                    for key in KEYS[:5]:
                        await c.put(key, "v")
                    past_last = await asyncio.wait_for(
                        c.scan(KEYS[4] + "\x00", 1), 5.0)
                    past_all = await asyncio.wait_for(c.scan("zzz", 4), 5.0)
                return past_last, past_all
            finally:
                await front.stop()
                for service in services:
                    await service.stop()

        past_last, past_all = asyncio.run(scenario())
        assert past_last["items"] == [] and past_all["items"] == []

    def test_a_proxy_add_with_one_key_pages_completes(self):
        async def scenario():
            shape = Proxy()
            await shape.start()
            try:
                async with ServiceClient("127.0.0.1", shape.port) as c:
                    for key in KEYS:
                        await c.put(key, SEED_VALUE)
                    report = await asyncio.wait_for(c.fleet_add_rack(
                        batch_size=1, pause_s=0.0, **shape.add_options), 10.0)
                    reads = [await c.get(key) for key in KEYS]
                return report, reads
            finally:
                await shape.stop()

        report, reads = asyncio.run(scenario())
        assert report["epoch"] == 1 and report["keys_moved"] > 0
        assert all(r["found"] and r["value"] == SEED_VALUE for r in reads)


class TestProxyWindowLegs:
    def test_a_window_write_to_a_backend_gone_away_is_answered(self):
        # The proxy keeps one client per backend for window writes; once
        # that backend's connection is gone, the next write must be
        # answered, not wait forever on a read loop that has ended.
        moving, _, owner = window_keys()
        key = moving[0]

        async def scenario():
            shape = Proxy()
            await shape.start()
            try:
                async with ServiceClient("127.0.0.1", shape.port) as c:
                    for k in KEYS:
                        await c.put(k, SEED_VALUE)
                    add = asyncio.ensure_future(c.fleet_add_rack(
                        batch_size=1, pause_s=0.05, max_attempts=1,
                        **shape.add_options))
                    while not shape.fleet.migrating:
                        await asyncio.sleep(0.001)
                    first = await answer(c.put(key, "w1"))
                    await shape.backends[owner[key]].stop()
                    second = await asyncio.wait_for(
                        answer(c.put(key, "w2")), 5.0)
                    aborted = await asyncio.wait_for(answer(add), 10.0)
                return first, second, aborted
            finally:
                await shape.stop()

        first, second, aborted = asyncio.run(scenario())
        assert first == (True, None, None, None)
        assert second == (False, protocol.TIMEOUT, None, None)
        assert aborted[:2] == (False, protocol.INTERNAL)


class TestInProcWindowWrite:
    def test_an_answer_settled_outside_a_pump_turn_is_flushed(self):
        # The forward waits out a stream put of its key; the change
        # aborts meanwhile, so the answer settles with no pump turn to
        # flush it -- the write must queue that flush itself.
        key = window_keys()[0][0]

        async def scenario():
            router = ShardRouter.from_config(config(), 2, precondition=False,
                                             chunk_us=2000.0)
            events = []
            router.after_chunk = lambda: events.append("flush")
            await router.start()
            try:
                router.fleet.begin_add(2)
                streaming = router.fleet.stream_put_begin(key)
                answer = router.submit_put(key, "w1")
                answer.add_done_callback(lambda _: events.append("answer"))
                while not router.fleet.is_forwarded(key):
                    await asyncio.sleep(0.001)
                router.fleet.abort()
                events.clear()
                router.fleet.stream_put_end(key, streaming)
                result = await asyncio.wait_for(answer, 5.0)
                for _ in range(3):
                    await asyncio.sleep(0)
                return events, result
            finally:
                await router.stop()

        events, result = asyncio.run(scenario())
        assert events == ["answer", "flush"]
        assert result["rack"] == window_keys()[2][key]
