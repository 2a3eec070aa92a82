"""Engine speed benchmarks: raw simulator events/sec and parallel fan-out.

Unlike the figure benches (which record *rack behaviour*), these record
*engine* speed so the perf trajectory captures regressions in the event
loop and the experiment fan-out from this PR onward.
"""

import asyncio
import random
import time

from conftest import run_once

from repro.cluster.config import RackConfig, SystemType
from repro.experiments.figures import clear_cache, fig9_p999_latency
from repro.experiments.parallel import ParallelRunner, RunCache, RunSpec, using_jobs
from repro.service.bridge import SimTimeBridge
from repro.service.router import ShardRouter
from repro.sim import Simulator
from repro.trace import NullTracer
from repro.workloads.spec import ycsb

#: Enough events for stable events/sec numbers but < 1 s of wall clock.
_EVENT_TARGET = 200_000


def _event_churn(events: int) -> float:
    """Drive a self-rescheduling callback chain for ``events`` callbacks;
    returns wall-clock seconds."""
    sim = Simulator()

    def tick():
        sim.schedule_after(1.0, tick)

    # A handful of independent chains exercises heap ordering, not just
    # the single-hot-entry fast path.
    for i in range(8):
        sim.schedule_after(float(i), tick)
    started = time.perf_counter()
    sim.run(max_events=events)
    elapsed = time.perf_counter() - started
    assert sim.event_count == events
    return elapsed


def test_simulator_event_throughput(benchmark):
    elapsed = run_once(benchmark, _event_churn, _EVENT_TARGET)
    rate = _EVENT_TARGET / elapsed
    print()
    print(f"raw event loop: {rate:,.0f} events/sec "
          f"({_EVENT_TARGET} events in {elapsed:.3f}s)")
    # Loose floor: a regression that makes the loop 10x slower should fail
    # loudly; normal machines do millions of events/sec.
    assert rate > 50_000


#: Ceiling for rack host-us per completed *request* over raw-loop us per
#: event: both the best of five alternating runs in this process, so the
#: host's speed cancels and a disturbed run (interference only ever
#: slows one down) drops out.  Per request, not per event: a change that
#: removes events makes each remaining one fatter, and an events/s ratio
#: (this gate until PR 24, floor 0.085) reads that as a slowdown.
#: The raw loop is ``schedule_after``, the kernel's one scheduling API.
#: Until the kernel dropped cancellation it was ``call_after``, which
#: allocated a cancellable entry and a handle per event; that loop cost
#: 1.95x this one (best of 11 alternating runs of each in one process,
#: four sessions: 1.91-2.03) on the same 2-core host, so every number
#: below from before then is multiplied by 1.95 here.  Measured 95-105
#: (median 102, now 199) with request legs as continuations and no
#: service or flush tick (11.4 events per request) and 111-126 (median
#: 123, now 240) with an ``Event`` per leg and both ticks (13.9), seven
#: alternating runs each while the old raw loop swung between 0.83 and
#: 1.08 us per event: the ceiling, 112 then, sits between the medians.
#: (Before that: 122-136 with the ticks, 121-159 with a start tick and
#: an ``Event`` per hop as well.)  ``tests/test_cluster.py`` pins the
#: event and call counts themselves, which no host can blur.
_RACK_US_PER_REQ_TO_RAW_US_PER_EVENT_CEILING = 218.0


def test_rack_run_reports_engine_throughput(benchmark):
    # 1,500 requests per pair: enough events that building the rack is a
    # small share of the run's wall clock.
    spec = RunSpec.create(
        SystemType.RACKBLOX, ycsb(0.5), 1500, 1500.0, 42,
        num_servers=2, num_pairs=2,
    )

    def measured() -> list:
        pairs = []
        for _ in range(5):
            raw = _event_churn(_EVENT_TARGET) / _EVENT_TARGET
            pairs.append((raw, spec.execute()))
        return pairs

    pairs = run_once(benchmark, measured)
    raw_us = min(raw for raw, _ in pairs) * 1e6
    result = min((result for _, result in pairs),
                 key=lambda result: result.wall_clock_s)
    requests = (result.metrics.read_total.count
                + result.metrics.write_total.count)
    rack_us = result.wall_clock_s * 1e6 / requests
    ratio = rack_us / raw_us
    print()
    print(f"rack run: {requests} requests, {result.events} events in "
          f"{result.wall_clock_s:.2f}s -> {rack_us:.1f} us/request "
          f"({result.events_per_sec():,.0f} events/sec); raw loop "
          f"{raw_us:.3f} us/event; rack/raw {ratio:.1f} "
          f"(ceiling {_RACK_US_PER_REQ_TO_RAW_US_PER_EVENT_CEILING})")
    assert ratio < _RACK_US_PER_REQ_TO_RAW_US_PER_EVENT_CEILING


#: Ceiling for bridge host-us per request at QD1 over the same at QD32:
#: one process, one rack, the best of three alternating phases each, so
#: the host's speed cancels as above.  With ``chunk_us=8000`` a pump turn
#: that always ran the whole chunk measured ~6 (every lone request
#: dragged 8 simulated ms of rack housekeeping behind it); a turn that
#: stops at the last live completion measures 1.2-1.5 -- what is left is
#: the asyncio round trip QD32 amortises over 32 requests.
_QD1_TO_QD32_CEILING = 2.5


async def _bridge_us_per_request(rounds: int = 3) -> tuple:
    """Best host-us per request of a raw 70/30 closed loop through one
    ``SimTimeBridge`` at QD32 and at QD1."""
    bridge = SimTimeBridge(RackConfig(num_servers=2, num_pairs=4, seed=42),
                           chunk_us=8000.0)
    rng = random.Random(42)
    pages = bridge.rack.pairs[0].primary.logical_pages

    async def closed_loop(depth: int, ops: int) -> float:
        unsent, unanswered, failures = [ops], [ops], []
        finished = asyncio.Event()

        def submit_next() -> None:
            if unsent[0] == 0:
                return
            unsent[0] -= 1
            submit = (bridge.submit_write if rng.random() < 0.3
                      else bridge.submit_read)
            submit(rng.randrange(4), rng.randrange(pages)).add_done_callback(done)

        def done(future: "asyncio.Future") -> None:
            if future.exception() is not None:
                failures.append(future.exception())
            unanswered[0] -= 1
            if unanswered[0] == 0 or failures:
                finished.set()
            else:
                submit_next()

        started = time.perf_counter()
        for _ in range(depth):
            submit_next()
        await finished.wait()
        assert not failures, failures[0]
        return (time.perf_counter() - started) * 1e6 / ops

    await bridge.start()
    try:
        await closed_loop(32, 2000)  # warm the rack and the interpreter
        qd32, qd1 = [], []
        for _ in range(rounds):
            qd32.append(await closed_loop(32, 4000))
            qd1.append(await closed_loop(1, 1000))
    finally:
        await bridge.stop()
    return min(qd32), min(qd1)


def test_pump_costs_a_lone_request_little_more_than_a_batched_one(benchmark):
    qd32, qd1 = run_once(benchmark, asyncio.run, _bridge_us_per_request())
    ratio = qd1 / qd32
    print()
    print(f"bridge host time per request: QD32 {qd32:.0f} us, QD1 {qd1:.0f} us; "
          f"QD1/QD32 {ratio:.2f} (ceiling {_QD1_TO_QD32_CEILING})")
    assert ratio <= _QD1_TO_QD32_CEILING


#: Ceiling for router host-us per ``scan(count=10)`` over the same per
#: ``get`` at QD1: one process, 4 in-proc racks holding 4,096 keys each,
#: the best of three alternating phases each, so the host's speed cancels
#: as above.  A store that re-sorted its keys for every leg under a
#: scatter that asked every rack for the whole ``count`` (40 page reads
#: for 10 keys) measured 33-34; an ordered key index and legs of twice a
#: rack's share measure 13.6-13.7 (the index alone would sit near 24).
_SCAN_TO_GET_CEILING = 20.0


async def _router_us_per_scan_and_get(rounds: int = 3) -> tuple:
    """Best host-us per operation of a lone closed loop of
    ``scan(count=10)`` and of ``get`` through a 4-rack ``ShardRouter``."""
    keys = [f"k{i:05d}" for i in range(4 * 4096)]
    router = ShardRouter.from_config(
        RackConfig(num_servers=2, num_pairs=2, seed=42), 4,
        gc_sync_s=0.0, chunk_us=8000.0,
    )
    rng = random.Random(42)

    async def lone(submit, ops: int) -> float:
        started = time.perf_counter()
        for _ in range(ops):
            await submit(rng.choice(keys))
        return (time.perf_counter() - started) * 1e6 / ops

    await router.start()
    try:
        for at in range(0, len(keys), 32):  # preload at QD32
            await asyncio.gather(*(
                router.submit_put(key, "v" + key) for key in keys[at:at + 32]
            ))
        scans, gets = [], []
        for _ in range(rounds):
            scans.append(await lone(lambda k: router.submit_scan(k, 10), 150))
            gets.append(await lone(router.submit_get, 1500))
    finally:
        await router.stop()
    return min(scans), min(gets)


def test_scatter_scan_costs_what_its_answer_costs(benchmark):
    scan, get = run_once(benchmark, asyncio.run, _router_us_per_scan_and_get())
    ratio = scan / get
    print()
    print(f"router host time per operation at QD1: scan(10) {scan:.0f} us, "
          f"get {get:.0f} us; scan/get {ratio:.1f} "
          f"(ceiling {_SCAN_TO_GET_CEILING})")
    assert ratio <= _SCAN_TO_GET_CEILING


def test_serial_vs_parallel_figure_sweep(benchmark):
    """Wall clock of the same figure sweep, serial vs --jobs fan-out.

    On a single-core box the parallel run may not win (fork + pickle
    overhead with no extra hardware), so this records both numbers and
    asserts only correctness: bit-identical rows.
    """
    kwargs = dict(write_ratios=(0.0, 0.4, 0.8), requests=400, seed=42)

    def measured() -> dict:
        clear_cache()
        with using_jobs(1):
            t0 = time.perf_counter()
            serial = fig9_p999_latency(**kwargs)
            serial_s = time.perf_counter() - t0
        clear_cache()
        with using_jobs(4):
            t0 = time.perf_counter()
            fanned = fig9_p999_latency(**kwargs)
            parallel_s = time.perf_counter() - t0
        clear_cache()
        return dict(serial=serial, fanned=fanned,
                    serial_s=serial_s, parallel_s=parallel_s)

    out = run_once(benchmark, measured)
    print()
    print(f"figure sweep (9 racks): serial {out['serial_s']:.1f}s, "
          f"--jobs 4 {out['parallel_s']:.1f}s "
          f"(speedup {out['serial_s'] / out['parallel_s']:.2f}x)")
    assert out["serial"].rows == out["fanned"].rows


def test_null_tracer_overhead_under_two_percent(benchmark):
    """Untraced runs must not pay for the tracing instrumentation.

    With `trace_sample_rate=0` the rack skips `NullTracer.start_request`
    (`enabled` is false) and every instrumentation site degrades to a
    `pkt.trace is None` check.  This bounds that degraded path from above
    -- one `start_request` call and 16 `dict.get` misses per request,
    per-call cost x calls-per-request against the measured run wall
    clock -- and asserts the bound is < 2% of an untraced run.  Full
    tracing (sample rate 1.0) is also timed for the printed comparison.
    """
    untraced = RunSpec.create(
        SystemType.RACKBLOX, ycsb(0.5), 300, 1500.0, 42,
        num_servers=2, num_pairs=2,
    )
    traced = RunSpec.create(
        SystemType.RACKBLOX, ycsb(0.5), 300, 1500.0, 42,
        num_servers=2, num_pairs=2, trace_sample_rate=1.0,
    )
    # At most one start_request per request, and a bounded number of
    # trace lookups and None checks (client, switch x2, egress, server
    # queue, media, return path), each costed as a `dict.get` miss.
    calls_per_request = 1
    gets_per_request = 16

    def measured() -> dict:
        base = min((untraced.execute() for _ in range(3)),
                   key=lambda r: r.wall_clock_s)
        full = min((traced.execute() for _ in range(3)),
                   key=lambda r: r.wall_clock_s)
        requests = base.metrics.read_total.count + base.metrics.write_total.count

        tracer = NullTracer()
        payload: dict = {}
        reps = 200_000
        t0 = time.perf_counter()
        for i in range(reps):
            tracer.start_request(i, "read", "bench", 0.0)
        call_s = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            payload.get("trace")
        get_s = (time.perf_counter() - t0) / reps

        instrumentation_s = requests * (
            calls_per_request * call_s + gets_per_request * get_s
        )
        return dict(
            base_s=base.wall_clock_s, full_s=full.wall_clock_s,
            instr_s=instrumentation_s,
            ratio=instrumentation_s / base.wall_clock_s,
        )

    out = run_once(benchmark, measured)
    print()
    print(f"untraced run {out['base_s']:.3f}s, fully traced "
          f"{out['full_s']:.3f}s; NullTracer instrumentation cost "
          f"{out['instr_s'] * 1e3:.2f}ms ({out['ratio']:.3%} of untraced run)")
    assert out["ratio"] < 0.02


def test_run_cache_dedup_avoids_rework(benchmark):
    """The shared cache makes repeated spec lists nearly free."""
    cache = RunCache()
    runner = ParallelRunner(jobs=1, cache=cache)
    spec = RunSpec.create(
        SystemType.VDC, ycsb(0.5), 200, 1500.0, 42,
        num_servers=2, num_pairs=2,
    )

    def first_then_hot() -> float:
        runner.run_specs([spec] * 4)  # one execution, three dedup hits
        t0 = time.perf_counter()
        runner.run_specs([spec] * 4)  # pure cache hits
        return time.perf_counter() - t0

    hot_s = run_once(benchmark, first_then_hot)
    print()
    print(f"hot cache re-read of 4 specs: {hot_s * 1e6:.0f} us")
    assert hot_s < 0.1
