"""The traced run's layer ladder: one request stream, ever deeper entry.

Every rung runs in this process on one thread and replays the same
seeded raw 70/30 stream at a deeper public entry point than the rung
below, so a layer's self time is its rung minus the rung below:

====  =======================================  ==========================
rung  entry point                              adds
====  =======================================  ==========================
0     ``Simulator.run`` on bare timeouts       the event loop
1     ``Rack.issue_read/issue_write``          the rack model
2     ``RackKvStore`` get/put/scan             the KV layer (one at a time)
3     ``SimTimeBridge.submit_*`` (asyncio)     the pump, futures
4     ``ShardRouter.submit_*`` over 4 racks    routing, 4 pumps, scans
5     TCP (``bench.served.probe``)             codec, sockets, front door
====  =======================================  ==========================

Spans are recorded here, around the calls; the program is untouched.
Every rung records the same two spans per request, so the recording
cost cancels when rungs are subtracted.
"""

import asyncio
import random
from typing import Any, Callable, Dict, Iterator, List

from repro.api import RackConfig, ShardRouter
from repro.cluster.rack import Rack
from repro.kvstore.store import RackKvStore
from repro.service.bridge import SimTimeBridge
from repro.sim import Simulator

from bench import workloads
from bench.workloads import value_of
from bench.spans import SpanLog

Request = Dict[str, Any]

DEPTH = workloads.CONNECTIONS * workloads.DEPTH
CHUNK_US = 8000.0
_LANE = 400


def _rack_config(seed: int, pairs: int = workloads.RAW_PAIRS) -> RackConfig:
    return RackConfig(num_servers=2, num_pairs=pairs, seed=seed)


def _take(stream: Iterator[Request], count: int) -> List[Request]:
    return [next(stream) for _ in range(count)]


# ------------------------------------------------------------------ rung 0

def rung0_sim(events: int, spans: SpanLog) -> Dict[str, float]:
    """``Simulator.run`` over self-rescheduling timeouts: the bare loop."""
    sim = Simulator()
    rng = random.Random(0)
    delays = [rng.uniform(1.0, 100.0) for _ in range(1024)]
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        sim.schedule_after(delays[fired[0] & 1023], tick)

    for _ in range(64):
        tick()
    span = spans.open("rung0.sim")
    sim.run(max_events=events)
    seconds = spans.close(span)
    return {"sim.raw_us_per_event": seconds * 1e6 / sim.event_count}


# ------------------------------------------------------------------ rung 1

def _closed_loop(sim: Simulator, requests: List[Request],
                 issue: Callable[[Request], Any], depth: int,
                 spans: SpanLog, parent: int, name: str) -> float:
    """Replay ``requests`` with ``depth`` outstanding inside the simulator.

    A completion issues the next request from within the event loop, so
    the interleaving is a function of the seed alone.  Returns the
    seconds spent inside ``issue``.
    """
    todo = iter(enumerate(requests))
    left = [len(requests)]
    issue_s = [0.0]

    def next_one() -> None:
        entry = next(todo, None)
        if entry is None:
            return
        rid, request = entry
        t0 = spans.now()
        event = issue(request)
        t1 = spans.now()
        issue_s[0] += t1 - t0
        span = spans.add(name, t0, t0, parent, rid)
        spans.add(name + ".issue", t0, t1, span, rid)

        def done(_event: Any) -> None:
            label, start, _, up, request_id = spans.spans[span]
            spans.spans[span] = (label, start, spans.now(), up, request_id)
            left[0] -= 1
            next_one()

        event.add_callback(done)

    for _ in range(depth):
        next_one()
    while left[0]:
        sim.run(until=sim.now + CHUNK_US)
    return issue_s[0]


def rung1_rack(seed: int, ops: int, spans: SpanLog) -> Dict[str, float]:
    """``Rack.issue_read/issue_write`` + ``sim.run`` at QD32."""
    rack = Rack(_rack_config(seed))
    rack.precondition()
    sim = rack.sim

    def issue(request: Request) -> Any:
        pair = rack.pairs[request["pair"]]
        if request["type"] == "read":
            return rack.issue_read(pair, request["lpn"])
        return rack.issue_write(pair, request["lpn"])

    root = spans.open("rung1.rack")
    preload = spans.open("rung1.preload", root)
    _closed_loop(sim, workloads.raw_preload(), issue, DEPTH, spans, preload,
                 "rack.request")
    spans.close(preload)
    requests = _take(workloads.raw_stream(seed, _LANE), ops)
    events_before = sim.event_count
    phase = spans.open("rung1.replay", root)
    issue_s = _closed_loop(sim, requests, issue, DEPTH, spans, phase,
                           "rack.request")
    seconds = spans.close(phase)
    spans.close(root)
    events = sim.event_count - events_before
    ftls = [vssd.ftl for vssd in rack.vssd_by_id.values()]
    host_writes = sum(ftl.host_writes for ftl in ftls)
    return {
        "cluster.rack.host_us_per_req": seconds * 1e6 / ops,
        "cluster.rack.host_us_per_event": seconds * 1e6 / events,
        "cluster.rack.issue_us": issue_s * 1e6 / ops,
        "cluster.rack.events_per_req": events / ops,
        "cluster.rack.gc_runs": rack.total_gc_runs(),
        "cluster.rack.redirected_reads": rack.redirect_count(),
        "cluster.rack.gc_blocked_reads": rack.gc_blocked_read_count(),
        "switch.recirculations": rack.switch.recirculations,
        "flash.waf":
            (host_writes + sum(ftl.gc_writes for ftl in ftls)) / host_writes,
    }


# ------------------------------------------------------------------ rung 2

def rung2_kvstore(seed: int, ops: int, spans: SpanLog) -> Dict[str, float]:
    """``RackKvStore`` get/put/scan through ``sim.spawn``, one at a time,
    so host time and events can be charged to the operation's type."""
    rack = Rack(_rack_config(seed))
    rack.precondition()
    sim = rack.sim
    store = RackKvStore(rack, client_name="bench-kv")

    def spawn(request: Request) -> Any:
        rtype = request["type"]
        if rtype == "get":
            return sim.spawn(store.get(request["key"]))
        if rtype == "put":
            return sim.spawn(store.put(request["key"], request["value"]))
        return sim.spawn(store.scan(request["start"], request["count"]))

    root = spans.open("rung2.kvstore")
    preload = spans.open("rung2.preload", root)
    _closed_loop(sim, workloads.kv_preload(), spawn, DEPTH, spans, preload,
                 "kvstore.request")
    spans.close(preload)
    seconds = {"get": 0.0, "put": 0.0, "scan": 0.0}
    events = dict.fromkeys(seconds, 0)
    count = dict.fromkeys(seconds, 0)
    stream = workloads.kv_stream(seed, _LANE, put_share=0.3, scan_share=0.02)
    phase = spans.open("rung2.replay", root)
    for rid, request in enumerate(_take(stream, ops)):
        rtype = request["type"]
        events_before = sim.event_count
        t0 = spans.now()
        process = spawn(request)
        while not process.triggered:
            sim.run(until=sim.now + 250.0)
        t1 = spans.now()
        spans.add("kvstore." + rtype, t0, t1, phase, rid)
        result = process.value
        if rtype == "get" and result[0] != value_of(request["key"]):
            raise RuntimeError(f"kvstore get {request['key']!r} -> {result[0]!r}")
        seconds[rtype] += t1 - t0
        events[rtype] += sim.event_count - events_before
        count[rtype] += 1
    spans.close(phase)
    spans.close(root)
    return {
        "kvstore.get_host_us": seconds["get"] * 1e6 / count["get"],
        "kvstore.put_host_us": seconds["put"] * 1e6 / count["put"],
        "kvstore.scan_host_us": seconds["scan"] * 1e6 / count["scan"],
        "kvstore.events_per_get": events["get"] / count["get"],
        "kvstore.events_per_put": events["put"] / count["put"],
    }


# ------------------------------------------------------------- rungs 3 and 4

async def _async_closed_loop(requests: List[Request],
                             submit: Callable[[Request], "asyncio.Future"],
                             depth: int, spans: SpanLog, parent: int,
                             name: str) -> float:
    """The asyncio twin of :func:`_closed_loop`: a completed future's
    callback submits the next request."""
    todo = iter(enumerate(requests))
    left = [len(requests)]
    submit_s = [0.0]
    finished = asyncio.Event()
    failures: List[BaseException] = []

    def next_one() -> None:
        entry = next(todo, None)
        if entry is None:
            return
        rid, request = entry
        t0 = spans.now()
        future = submit(request)
        t1 = spans.now()
        submit_s[0] += t1 - t0
        span = spans.add(name, t0, t0, parent, rid)
        spans.add(name + ".submit", t0, t1, span, rid)

        def done(fut: "asyncio.Future") -> None:
            label, start, _, up, request_id = spans.spans[span]
            spans.spans[span] = (label, start, spans.now(), up, request_id)
            if fut.cancelled() or fut.exception() is not None:
                failures.append(fut.exception() or asyncio.CancelledError())
            left[0] -= 1
            if left[0] == 0:
                finished.set()
            else:
                next_one()

        future.add_done_callback(done)

    for _ in range(depth):
        next_one()
    await finished.wait()
    if failures:
        raise RuntimeError(f"{name}: {len(failures)} failed: {failures[0]!r}")
    return submit_s[0]


def _submitter(target: Any) -> Callable[[Request], "asyncio.Future"]:
    """Dispatch a request dict onto a bridge-shaped ``submit_*`` surface."""
    def submit(request: Request) -> "asyncio.Future":
        rtype = request["type"]
        if rtype == "read":
            return target.submit_read(request["pair"], request["lpn"])
        if rtype == "write":
            return target.submit_write(request["pair"], request["lpn"])
        if rtype == "get":
            return target.submit_get(request["key"])
        if rtype == "put":
            return target.submit_put(request["key"], request["value"])
        return target.submit_scan(request["start"], request["count"])
    return submit


async def _replay(target: Any, seed: int, ops: int, spans: SpanLog,
                  root: int, name: str) -> Dict[str, float]:
    """Preload, then the raw stream at QD32 and at QD1."""
    submit = _submitter(target)
    preload = spans.open(name + ".preload", root)
    await _async_closed_loop(workloads.raw_preload(), submit, DEPTH, spans,
                             preload, name + ".request")
    spans.close(preload)
    requests = _take(workloads.raw_stream(seed, _LANE), ops)
    phase = spans.open(name + ".qd32", root)
    submit_s = await _async_closed_loop(requests, submit, DEPTH, spans, phase,
                                        name + ".request")
    qd32_s = spans.close(phase)
    qd1_requests = _take(workloads.raw_stream(seed, _LANE + 1), ops // 4)
    phase = spans.open(name + ".qd1", root)
    await _async_closed_loop(qd1_requests, submit, 1, spans, phase,
                             name + ".request")
    qd1_s = spans.close(phase)
    return {
        "qd32_us": qd32_s * 1e6 / ops,
        "qd1_us": qd1_s * 1e6 / len(qd1_requests),
        "submit_us": submit_s * 1e6 / ops,
    }


async def _rung3(seed: int, ops: int, spans: SpanLog) -> Dict[str, float]:
    bridge = SimTimeBridge(_rack_config(seed), chunk_us=CHUNK_US)
    await bridge.start()
    root = spans.open("rung3.bridge")
    try:
        return await _replay(bridge, seed, ops, spans, root, "bridge")
    finally:
        spans.close(root)
        await bridge.stop()


async def _rung4(seed: int, ops: int, scans: int,
                 spans: SpanLog) -> Dict[str, float]:
    # One pair per rack, so the stream's pair i lands on rack i.
    router = ShardRouter.from_config(
        _rack_config(seed, pairs=1), workloads.RAW_PAIRS,
        queue_depth=512, chunk_us=CHUNK_US)
    await router.start()
    root = spans.open("rung4.router")
    try:
        out = await _replay(router, seed, ops, spans, root, "router")
        submit = _submitter(router)
        preload = spans.open("router.kv_preload", root)
        await _async_closed_loop(workloads.kv_preload(1024), submit, DEPTH,
                                 spans, preload, "router.request")
        spans.close(preload)
        rng = random.Random(seed)
        scan_requests = [
            {"type": "scan", "count": 10,
             "start": workloads.key_name(rng.randrange(1024))}
            for _ in range(scans)]
        phase = spans.open("router.scans", root)
        await _async_closed_loop(scan_requests, submit, 1, spans, phase,
                                 "router.scan")
        out["scan_us"] = spans.close(phase) * 1e6 / scans
        return out
    finally:
        spans.close(root)
        await router.stop()


def run(seed: int, ops: int, spans: SpanLog) -> Dict[str, float]:
    """Rungs 0 to 4 and the self times between them."""
    out = rung0_sim(ops * 40, spans)
    out.update(rung1_rack(seed, ops, spans))
    out.update(rung2_kvstore(seed, ops // 2, spans))
    bridge = asyncio.run(_rung3(seed, ops, spans))
    router = asyncio.run(_rung4(seed, ops, max(20, ops // 100), spans))
    rack_us = out["cluster.rack.host_us_per_req"]
    out.update({
        "service.bridge.host_us_per_req_qd32": bridge["qd32_us"],
        "service.bridge.host_us_per_req_qd1": bridge["qd1_us"],
        "service.bridge.self_us_per_req": bridge["qd32_us"] - rack_us,
        "service.bridge.submit_us": bridge["submit_us"],
        "service.router.host_us_per_req": router["qd32_us"],
        "service.router.self_us_per_req": router["qd32_us"] - bridge["qd32_us"],
        "service.router.scan_host_us": router["scan_us"],
    })
    return out

