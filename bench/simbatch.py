"""The ``sim_batch`` workload: the batch simulator, no service.

The program under test is a fresh ``python -m bench sim-child``
interpreter that builds one RACKBLOX rack and drives it the way
``run_rack_experiment`` does -- ``Rack`` + one open-loop ``Client`` per
pair + ``Simulator.run(until=...)`` -- in steps of 50 simulated
milliseconds so host-time windows can be cut.  The parent times the
child's set-up and tells it how long to measure.

The load is open loop *in simulated time* (1,500 IOPS per pair), so the
simulated statistics do not depend on how fast the host runs; they are
taken up to a fixed simulated horizon and repeat exactly for one seed.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from bench import stats
from bench.host import ROOT, RunFailed, child_env, peak_rss_mb
from bench.workloads import SATURATED_SHARE

SERVERS = 4
PAIRS = 4
WRITE_RATIO = 0.5
RATE_IOPS_PER_PAIR = 1500.0
STEP_US = 50_000.0
#: Requests per pair of the warm-up run on a throw-away rack; sized so
#: that set-up is over four seconds of work.
WARMUP_REQUESTS = 5000
#: Simulated microseconds of fixed horizon per saturated host second
#: (2,100 requests): a fixed amount of simulated work, so both sides of
#: a comparison take the simulated statistics over identical requests.
#: About 0.4 of what this host simulates in the phase; a slower host
#: keeps the phase going until the horizon.  No further: from about 8
#: simulated seconds on, garbage collection moves the read p99 of some
#: seeds to another regime (spread across 30 seeds: 7 % at 7 simulated
#: seconds, 9 % at 8, 17 % at 9, 26 % at 10).
HORIZON_US_PER_S = 350_000.0
#: Window widths of the two measured phases (see ``bench.served``).
WINDOW_S = 1.0
QD1_WINDOW_S = 0.25
#: Simulated microseconds per ``Simulator.run`` while one request is out.
QD1_CHUNK_US = 1000.0


class _Recorder:
    """What ``Client`` needs of ``ExperimentMetrics``, keeping each
    sample with its completion time so a fixed horizon can be cut."""

    def __init__(self) -> None:
        self.reads: List[Any] = []
        self.writes: List[Any] = []

    def record(self, kind: str, total_us: float, at: float,
               storage_us: Any = None) -> None:
        (self.reads if kind == "read" else self.writes).append((at, total_us))

    @property
    def count(self) -> int:
        return len(self.reads) + len(self.writes)


class _Stoppable:
    """An ``OpenLoopGenerator`` the measurement can tell to stop, so the
    clients drain and every issued request is accounted for."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.stopped = False

    def requests(self, count: int):
        for request in self.inner.requests(count):
            if self.stopped:
                return
            yield request


def _build(seed: int):
    """A preconditioned rack with one open-loop client per pair."""
    from repro.api import RackConfig, SystemType
    from repro.cluster.client import Client
    from repro.cluster.rack import Rack
    from repro.workloads.generator import OpenLoopGenerator
    from repro.workloads.spec import ycsb

    rack = Rack(RackConfig(system=SystemType.RACKBLOX, num_servers=SERVERS,
                           num_pairs=PAIRS, seed=seed))
    rack.precondition()
    recorder = _Recorder()
    clients, generators = [], []
    for index, pair in enumerate(rack.pairs):
        generator = _Stoppable(OpenLoopGenerator(
            ycsb(WRITE_RATIO), key_space=rack.working_set_pages(pair),
            rate_iops=RATE_IOPS_PER_PAIR,
            rng=rack.rng.stream(f"client-{index}"),
        ))
        generators.append(generator)
        clients.append(Client(rack, f"client-{index}", pair, generator, recorder))
    return rack, clients, generators, recorder


def _run_to_completion(rack, processes) -> None:
    while not all(process.triggered for process in processes):
        rack.sim.run(until=rack.sim.now + STEP_US)


def _exact_counts(rack, recorder: _Recorder, events: int) -> Dict[str, int]:
    """Counts that must repeat bit for bit for one seed."""
    ftls = [vssd.ftl for vssd in rack.vssd_by_id.values()]
    return {
        "cluster.rack.completed": recorder.count,
        "cluster.rack.events": events,
        "cluster.rack.gc_runs": rack.total_gc_runs(),
        "cluster.rack.redirected_reads": rack.redirect_count(),
        "cluster.rack.gc_blocked_reads": rack.gc_blocked_read_count(),
        "switch.recirculations": rack.switch.recirculations,
        "flash.host_writes": sum(ftl.host_writes for ftl in ftls),
        "flash.gc_writes": sum(ftl.gc_writes for ftl in ftls),
    }


def _saturated_phase(rack, clients, generators, recorder: _Recorder,
                     saturated_s: float, horizon_us: float) -> Dict[str, Any]:
    """Open loop in simulated time, stepped so host-time windows can be cut."""
    sim = rack.sim
    processes = [sim.spawn(c.run(10 ** 9)) for c in clients]
    events_before = sim.event_count
    at_horizon: Dict[str, Any] = {}
    clock = time.perf_counter
    cpu_clock = time.process_time
    start = clock()
    windows = stats.Windows(WINDOW_S, start, cpu_clock())
    while True:
        sim.run(until=sim.now + STEP_US)
        now = clock()
        if now >= windows.next_cut_s:
            windows.cut(now, recorder.count, cpu_clock())
        if not at_horizon and sim.now >= horizon_us:
            at_horizon = {
                "exact": _exact_counts(rack, recorder,
                                       sim.event_count - events_before),
                "horizon_rss_mb": peak_rss_mb(os.getpid()),
            }
        if at_horizon and now - start >= saturated_s:
            break
    elapsed = clock() - start
    for generator in generators:
        generator.stopped = True
    _run_to_completion(rack, processes)
    return dict(at_horizon, windows=windows.closed, saturated_s=elapsed)


def _qd1_phase(rack, seed: int, seconds: float) -> Dict[str, Any]:
    """One request at a time, read or write alike, straight into the
    rack: the host-time floor every served request is built on."""
    sim = rack.sim
    rng = random.Random(seed)
    wall: List[float] = []
    p50s: List[float] = []
    clock = time.perf_counter
    start = clock()
    next_cut = start + QD1_WINDOW_S
    first = 0
    while True:
        pair = rack.pairs[rng.randrange(PAIRS)]
        lpn = rng.randrange(rack.working_set_pages(pair))
        t0 = clock()
        if rng.random() < WRITE_RATIO:
            event = rack.issue_write(pair, lpn, client="qd1")
        else:
            event = rack.issue_read(pair, lpn, client="qd1")
        while not event.triggered:
            sim.run(until=sim.now + QD1_CHUNK_US)
        now = clock()
        wall.append(now - t0)
        if now >= next_cut:
            p50s.append(stats.quantile(wall[first:], 0.5) * 1000.0)
            first = len(wall)
            next_cut = now + QD1_WINDOW_S
            if now - start >= seconds:
                break
    return {
        "qd1_ops": len(wall),
        "qd1_p50s_ms": p50s,
        "qd1_p50_whole_ms": stats.quantile(wall, 0.5) * 1000.0,
    }


def child_main(seed: int, warmup_requests: int) -> int:
    """The process under test.  Talks to the parent on stdin/stdout:
    prints ``ready`` after set-up, measures on ``go <seconds>``, prints
    one JSON line of raw results, exits when stdin closes."""
    rack, clients, _, _ = _build(seed)
    _run_to_completion(
        rack, [rack.sim.spawn(c.run(warmup_requests)) for c in clients])
    rack, clients, generators, recorder = _build(seed)
    print("ready", flush=True)
    line = sys.stdin.readline().split()
    if not line or line[0] != "go":
        return 0
    seconds = float(line[1])
    saturated_s = seconds * SATURATED_SHARE
    horizon_us = round(saturated_s * HORIZON_US_PER_S / STEP_US) * STEP_US
    out = _saturated_phase(rack, clients, generators, recorder,
                           saturated_s, horizon_us)
    out.update(_qd1_phase(rack, seed, seconds - saturated_s))
    reads = [lat for at, lat in recorder.reads if at <= horizon_us]
    writes = [lat for at, lat in recorder.writes if at <= horizon_us]
    out.update({
        "issued": sum(c.issued for c in clients),
        "completed": sum(c.completed for c in clients),
        "horizon_us": horizon_us,
        "sim_read_p99_us": stats.quantile(reads, 0.99),
        "sim_write_avg_us": statistics.fmean(writes),
        "sim_read_samples": len(reads),
        "sim_write_samples": len(writes),
    })
    print(json.dumps(out), flush=True)
    return 0


def _reap(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def run_end_to_end(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """The untraced run: the seven end-to-end metrics of ``sim_batch``."""
    warmup = WARMUP_REQUESTS // 20 if smoke else WARMUP_REQUESTS
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "sim-child", "--seed", str(seed),
         "--warmup", str(warmup)],
        cwd=ROOT, env=child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RunFailed("sim_batch child did not get ready")
        setup_s = time.perf_counter() - start
        proc.stdin.write(f"go {seconds}\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RunFailed("sim_batch child died while measuring")
        out = json.loads(line)
    finally:
        _reap(proc)
    if out["completed"] != out["issued"]:
        raise RunFailed(f"sim_batch: {out['completed']} of {out['issued']} "
                        "requests completed")
    rows = out["windows"]
    return {
        "attempted": out["issued"] + out["qd1_ops"],
        "failed": 0,
        "metrics": {
            "setup_s": setup_s,
            "throughput_rps": stats.fast_rate(stats.rates(rows)),
            "qd1_latency_p50_ms": stats.fast_cost(out["qd1_p50s_ms"]),
            "cpu_ms_per_req": stats.fast_cost(stats.cpu_ms_per_op(rows)),
            "sim_read_p99_us": out["sim_read_p99_us"],
            "sim_write_avg_us": out["sim_write_avg_us"],
            "peak_rss_mb": out["horizon_rss_mb"],
        },
        "info": {
            "negotiated": "none",
            "saturated_ops": out["completed"],
            "saturated_s": round(out["saturated_s"], 3),
            "rps_whole": stats.whole_rate(rows),
            "cpu_ms_per_req_whole": stats.whole_cpu_ms_per_op(rows),
            "qd1_ops": out["qd1_ops"],
            "qd1_p50_whole_ms": out["qd1_p50_whole_ms"],
            "sim_read_samples": out["sim_read_samples"],
            "sim_write_samples": out["sim_write_samples"],
            "horizon_us": out["horizon_us"],
        },
        "exact": out["exact"],
    }
