"""The four workloads: what each sends, to what, and why it exists.

A workload is data plus a seeded request stream.  The program under
test sees only the generated requests; ``--seed`` reaches it solely as
``RackConfig.seed`` (the simulated rack's own randomness).  The
generators here are the benchmark's own, so a change to the repo's load
generators cannot move the benchmark.
"""

import bisect
import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

Request = Dict[str, Any]

#: Connections the driver opens; each is pipelined to DEPTH requests, so
#: the saturated phase holds QD32 in total, the figure a storage client
#: quotes.  Two connections whatever the core count: the driver is one
#: thread, and kv_hot / fleet_mixed need exactly one connection per tenant.
CONNECTIONS = 2
DEPTH = 16

#: The run length ``BENCHMARK.json`` declares, and the share of it spent
#: saturated (QD32, or open loop for sim_batch); the rest is the QD1
#: phase.  So 20 s saturated and 4 s at QD1.
RUN_SECONDS = 24
SATURATED_SHARE = 5.0 / 6.0

RAW_PAIRS = 4
RAW_LPNS = 1024
KV_KEYS = 4096
FLEET_KEYS = 16384


def key_name(index: int) -> str:
    return f"k{index:05d}"


def value_of(key: str) -> str:
    """The value every benchmark key holds, at preload and ever after."""
    return "v" + key


def _tenant_spec(cache_capacity: int) -> str:
    return json.dumps({
        "tenants": [
            {"name": "gold", "weight": 3, "cache_share": 3},
            {"name": "silver", "weight": 1, "cache_share": 1},
        ],
        "cache_capacity": cache_capacity,
    }, separators=(",", ":"))


def _rng(seed: int, lane: int) -> random.Random:
    """An independent stream per (seed, connection or phase)."""
    return random.Random(seed * 7919 + lane)


# ----------------------------------------------------------------- streams

def raw_stream(seed: int, lane: int, write_share: float = 0.3,
               pairs: int = RAW_PAIRS) -> Iterator[Request]:
    """Raw vSSD reads and writes, uniform over ``pairs`` x RAW_LPNS pages."""
    rng = _rng(seed, lane)
    while True:
        rtype = "write" if rng.random() < write_share else "read"
        yield {"type": rtype, "pair": rng.randrange(pairs),
               "lpn": rng.randrange(RAW_LPNS)}


def raw_preload(pairs: int = RAW_PAIRS) -> List[Request]:
    return [{"type": "write", "pair": pair, "lpn": lpn}
            for pair in range(pairs) for lpn in range(RAW_LPNS)]


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    return list(itertools.accumulate(w / total for w in weights))


def kv_stream(seed: int, lane: int, *, put_share: float, scan_share: float = 0.0,
              zipf_s: float = 0.0, keys: int = KV_KEYS) -> Iterator[Request]:
    """KV gets, puts and scans over ``keys`` preloaded keys.

    With ``zipf_s`` the key popularity is zipfian and which keys are hot
    depends on the seed; otherwise keys are uniform.  A put rewrites the
    key's one value, so every later get can still be checked.
    """
    rng = _rng(seed, lane)
    order = list(range(keys))
    cdf: Optional[List[float]] = None
    if zipf_s > 0:
        random.Random(seed).shuffle(order)   # same hot set on every lane
        cdf = _zipf_cdf(keys, zipf_s)
    while True:
        draw = rng.random()
        if cdf is None:
            key = key_name(rng.randrange(keys))
        else:
            rank = min(bisect.bisect_left(cdf, rng.random()), keys - 1)
            key = key_name(order[rank])
        if draw < scan_share:
            yield {"type": "scan", "start": key, "count": 10}
        elif draw < scan_share + put_share:
            yield {"type": "put", "key": key, "value": value_of(key)}
        else:
            yield {"type": "get", "key": key}


def kv_preload(keys: int = KV_KEYS) -> List[Request]:
    return [{"type": "put", "key": key_name(i), "value": value_of(key_name(i))}
            for i in range(keys)]


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class ServedWorkload:
    """A workload driven over TCP against ``repro.cli serve``."""

    name: str
    why: str
    #: ``repro.cli serve`` arguments after ``--port 0 --seed S``.
    serve_args: Tuple[str, ...]
    #: Tenant each connection declares (``None``: the default tenant).
    tenants: Tuple[Optional[str], ...]
    #: Preloaded KV keys (0: the workload is raw pages, not keys).
    keys: int
    #: Operations each connection sends to warm up, the first of the
    #: seeded stream; sized so that set-up is over four seconds of work.
    warmup_ops: int
    #: Operations of each connection, from the start of the saturated
    #: phase, that the simulated-time statistics and the memory reading
    #: cover at the declared run length: a fixed count, so both sides of
    #: a comparison take them over identical work however fast they run.
    #: About half of what this host serves in the phase (``fleet_mixed``:
    #: most of it, to reach 20,000 reads); a slower host keeps the phase
    #: going until it has served them.
    sim_ops: int
    #: Read-cache hit rate the workload is built to produce (lo, hi), or
    #: ``None`` when the server runs without a cache.
    hit_rate: Optional[Tuple[float, float]]

    def preload(self) -> List[Request]:
        return kv_preload(self.keys) if self.keys else raw_preload()

    def stream(self, seed: int, lane: int) -> Iterator[Request]:
        if self.name == "raw_qd32":
            return raw_stream(seed, lane)
        if self.name == "kv_hot":
            return kv_stream(seed, lane, put_share=0.10, zipf_s=1.2,
                             keys=self.keys)
        return kv_stream(seed, lane, put_share=0.49, scan_share=0.02,
                         keys=self.keys)

    def smoke_sized(self) -> "ServedWorkload":
        """A twentieth of the keys and the warm-up: quick, and no longer
        the workload (the cache holds every key)."""
        return dataclasses.replace(self, keys=self.keys // 20,
                                   warmup_ops=self.warmup_ops // 20)


_RACK = ("--servers", "2", "--pairs", "4", "--queue-depth", "512",
         "--chunk-us", "8000")

RAW_QD32 = ServedWorkload(
    name="raw_qd32",
    why=("raw 70/30 read/write at QD32: every live layer runs and the "
         "simulator dominates; its QD1 phase pays one pump chunk per "
         "request, which is where service.bridge shows"),
    serve_args=_RACK,
    tenants=(None, None),
    keys=0,
    warmup_ops=8_500,
    sim_ops=30_000,
    hit_rate=None,
)

KV_HOT = ServedWorkload(
    name="kv_hot",
    why=("zipf 90/10 get/put, two tenants, cache half the keyspace: three "
         "of four gets are answered by codec, front door, QoS and "
         "ReadCache without the simulator; puts invalidate hot keys"),
    serve_args=_RACK + ("--tenants", _tenant_spec(2048)),
    tenants=("gold", "silver"),
    keys=KV_KEYS,
    warmup_ops=14_000,
    sim_ops=50_000,
    hit_rate=(0.6, 0.9),
)

FLEET_MIXED = ServedWorkload(
    name="fleet_mixed",
    why=("4 in-process racks, uniform 49/49/2 get/put/scan over 8x the "
         "cache: the only workload through router, shard and scatter "
         "scans; write-heavy, and nearly every cache lookup misses"),
    serve_args=("--racks", "4", "--shard-mode", "inproc", "--servers", "2",
                "--pairs", "2", "--queue-depth", "512", "--chunk-us", "8000",
                "--tenants", _tenant_spec(2048)),
    tenants=("gold", "silver"),
    keys=FLEET_KEYS,
    warmup_ops=2_000,
    sim_ops=20_000,
    hit_rate=(0.0, 0.2),
)

SIM_BATCH_NAME = "sim_batch"
SIM_BATCH_WHY = ("the batch simulator behind the paper's figures, no service: "
                 "with a fixed seed every simulated statistic repeats exactly, "
                 "so it guards that a speed-up left the model untouched")

SERVED = {w.name: w for w in (RAW_QD32, KV_HOT, FLEET_MIXED)}
NAMES = (SIM_BATCH_NAME,) + tuple(SERVED)
