"""Pure-function timings of the layers that never touch the simulator.

Each number is microseconds per call of one public function, timed as a
block of calls and reported as the median of a few blocks.  The loop's
own cost is included; it is the same before and after any change.
"""

import statistics
import time
from typing import Any, Callable, Dict, List

from repro.api import HashRing, QosScheduler, ReadCache, TenantSpec
from repro.service import protocol
from repro.service.admission import AdmissionController

from bench import workloads
from bench.workloads import value_of

BLOCKS = 5


def _us_per_call(block: Callable[[], int]) -> float:
    """Median microseconds per call; ``block`` returns its call count."""
    samples = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        calls = block()
        samples.append((time.perf_counter() - t0) * 1e6 / calls)
    return statistics.median(samples)


def _messages(seed: int, count: int) -> List[Dict[str, Any]]:
    """Requests and the answers they draw: the raw mix plus KV traffic."""
    out: List[Dict[str, Any]] = []
    raw = workloads.raw_stream(seed, 500)
    kv = workloads.kv_stream(seed, 501, put_share=0.3)
    for rid in range(1, count + 1):
        request = dict(next(raw) if rid % 2 else next(kv), id=rid)
        out.append(request)
        answer: Dict[str, Any] = {"latency_us": 400.0 + rid / 7.0}
        if request["type"] in ("read", "write"):
            answer["storage_us"] = 80.0 + rid / 11.0
        if request["type"] == "write":
            answer["replicas"] = 2
        if request["type"] == "get":
            answer.update(value=value_of(request["key"]), found=True)
        out.append(protocol.ok_response(rid, **answer))
    return out


def _codec(seed: int, count: int) -> Dict[str, float]:
    messages = _messages(seed, count)
    out: Dict[str, float] = {}
    for label, binary in (("json", False), ("bin", True)):
        frames = [protocol.encode_frame_as(m, binary) for m in messages]
        if binary and not all(f[0] == protocol.BIN_MAGIC for f in frames):
            raise RuntimeError("a hot-path message fell back to JSON")
        wire = b"".join(frames)

        def encode() -> int:
            for message in messages:
                protocol.encode_frame_as(message, binary)
            return len(messages)

        def decode() -> int:
            decoded = protocol.FrameDecoder().feed(wire)
            if len(decoded) != len(messages):
                raise RuntimeError("decoder lost frames")
            return len(decoded)

        if protocol.FrameDecoder().feed(wire) != messages:
            raise RuntimeError(f"{label} codec does not round-trip")
        out[f"service.protocol.encode_{label}_us"] = _us_per_call(encode)
        out[f"service.protocol.decode_{label}_us"] = _us_per_call(decode)
        # Request plus response, so per request on the wire.
        out[f"service.protocol.bytes_per_req_{label}"] = len(wire) / count
    return out


def _readcache(count: int) -> Dict[str, float]:
    shares = {"gold": 3.0, "silver": 1.0}
    keys = [workloads.key_name(i) for i in range(count)]
    absent = [f"x{i:05d}" for i in range(count)]
    cache = ReadCache(4 * count, shares=shares)
    for key in keys:
        _, _, token = cache.lookup(key, "gold")
        cache.fill(key, value_of(key), "gold", token)

    def hits() -> int:
        for key in keys:
            cache.lookup(key, "gold")
        return count

    def misses() -> int:
        for key in absent:
            cache.lookup(key, "gold")
        return count

    def fills() -> int:
        # A small cache, so every fill also evicts: the miss path's cost.
        small = ReadCache(64, shares=shares)
        tokens = [small.lookup(key, "gold")[2] for key in keys]
        t0 = time.perf_counter()
        for key, token in zip(keys, tokens):
            small.fill(key, "v", "gold", token)
        fills.seconds = time.perf_counter() - t0
        return count

    def invalidations() -> int:
        for key in keys:
            cache.invalidate(key)
        return count

    out = {
        "service.readcache.lookup_hit_us": _us_per_call(hits),
        "service.readcache.lookup_miss_us": _us_per_call(misses),
    }
    samples = []
    for _ in range(BLOCKS):
        fills()
        samples.append(fills.seconds * 1e6 / count)
    out["service.readcache.fill_us"] = statistics.median(samples)
    out["service.readcache.invalidate_us"] = _us_per_call(invalidations)
    return out


def _gates(count: int) -> Dict[str, float]:
    qos = QosScheduler([TenantSpec("gold", weight=3.0), TenantSpec("silver")],
                       max_queue_depth=512)
    admission = AdmissionController(max_queue_depth=512)
    ring = HashRing(range(4))
    keys = [workloads.key_name(i) for i in range(count)]

    def qos_cycle() -> int:
        for _ in range(count):
            if qos.try_admit("gold"):
                qos.on_submit("gold")
                qos.on_complete("gold", 1.0)
        return count

    def admit() -> int:
        for _ in range(count):
            admission.try_admit("bench", 16)
        return count

    def node_for() -> int:
        for key in keys:
            ring.node_for(key)
        return count

    def preference() -> int:
        for key in keys:
            ring.preference(key)
        return count

    return {
        "service.qos.admit_cycle_us": _us_per_call(qos_cycle),
        "service.admission.try_admit_us": _us_per_call(admit),
        "service.shard.node_for_us": _us_per_call(node_for),
        "service.shard.preference_us": _us_per_call(preference),
    }


def run(seed: int, count: int) -> Dict[str, float]:
    out = _codec(seed, count)
    out.update(_readcache(count))
    out.update(_gates(count))
    return out
