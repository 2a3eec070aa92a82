"""Running a served workload: a fresh ``repro.cli serve`` child, driven
over TCP through set-up, a saturated QD32 phase and a QD1 phase."""

import bisect
import dataclasses
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Tuple

from bench import stats
from bench.driver import Connection, PhaseResult, Request, run_phase
from bench.host import ROOT, RunFailed, child_env, keep_awake
from bench.spans import SpanLog
from bench.workloads import (CONNECTIONS, DEPTH, RUN_SECONDS, SATURATED_SHARE,
                             ServedWorkload)

#: Lane numbers keep the phases' request streams independent.
_LANE_WARMUP = 100
_LANE_SATURATED = 200
_LANE_QD1 = 300

#: Window widths of the two measured phases.  The QD1 phase is a fifth
#: as long as the saturated one and a burst of interference lasts
#: seconds, so its windows are shorter: more of them miss the burst.
SATURATED_WINDOW_S = 1.0
QD1_WINDOW_S = 0.25


class ServerUnderTest:
    """One ``repro.cli serve`` child and the driver's connections to it."""

    def __init__(self, workload: ServedWorkload, seed: int) -> None:
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--seed", str(seed), *workload.serve_args],
            cwd=ROOT, env=child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.conns: List[Connection] = []
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
            if match is None:
                rest = self.proc.stdout.read() if self.proc.poll() is not None else ""
                raise RunFailed(f"server did not start: {line!r} {rest!r}")
            port = int(match.group(1))
            for tenant in workload.tenants:
                self.conns.append(Connection("127.0.0.1", port, tenant))
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stats(self) -> Dict[str, Any]:
        return self.conns[0].call({"type": "stats"})

    def phase(self, streams: List[Iterator[Request]], depth: int = DEPTH,
              **kwargs: Any) -> PhaseResult:
        conns = self.conns[:len(streams)]
        result = run_phase(conns, streams, depth, self.pid, **kwargs)
        if result.failed or result.completed != result.issued:
            raise RunFailed(
                f"{self.workload.name}: {result.failed} failed, "
                f"{result.completed}/{result.issued} answered: "
                f"{result.failures}")
        return result

    def stop(self) -> None:
        """Close the connections, drain the server and reap it."""
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _take(stream: Iterator[Request], count: int) -> Iterator[Request]:
    for _ in range(count):
        yield next(stream)


def set_up(workload: ServedWorkload, seed: int) -> Tuple[ServerUnderTest, float]:
    """Launch, preload every key or page once in order, then warm up.

    Returns the server and the wall seconds from launching it to the
    end of the warm-up: ``setup_s``.
    """
    start = time.perf_counter()
    sut = ServerUnderTest(workload, seed)
    try:
        preload = workload.preload()
        sut.phase([iter(preload[lane::CONNECTIONS])
                   for lane in range(CONNECTIONS)])
        sut.phase([_take(workload.stream(seed, _LANE_WARMUP + lane),
                         workload.warmup_ops)
                   for lane in range(CONNECTIONS)])
    except BaseException:
        sut.stop()
        raise
    return sut, time.perf_counter() - start


def saturated_streams(workload: ServedWorkload, seed: int):
    return [workload.stream(seed, _LANE_SATURATED + lane)
            for lane in range(CONNECTIONS)]


def window_p50s(phase: PhaseResult) -> List[float]:
    """Median wall latency (ms) of the answers within each window."""
    out = []
    for start, seconds, *_ in phase.windows.closed:
        low = bisect.bisect_left(phase.done_s, start)
        high = bisect.bisect_right(phase.done_s, start + seconds)
        out.append(stats.quantile(phase.wall_s[low:high], 0.5) * 1000.0)
    return out


def sim_prefix(phase: PhaseResult, prefix: int):
    """Reported latencies of the reads and the writes of the prefix."""
    reads, writes = [], []
    for index, is_read, sim_us in zip(phase.op_index, phase.is_read, phase.sim_us):
        if index < prefix:
            (reads if is_read else writes).append(sim_us)
    return reads, writes


def delta(after: Dict[str, Any], before: Dict[str, Any], section: str,
          field: str) -> float:
    return float(after.get(section, {}).get(field, 0.0)) \
        - float(before.get(section, {}).get(field, 0.0))


def shed_counts(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, float]:
    """Requests refused by admission and by tenant QoS between snapshots."""
    admission = (delta(after, before, "admission", "shed_queue_full")
                 + delta(after, before, "admission", "shed_rate_limited"))
    qos = 0.0
    for tenant, fields in after.get("tenants", {}).items():
        prior = before.get("tenants", {}).get(tenant, {})
        for name in ("shed_rate_limited", "shed_over_share"):
            qos += fields.get(name, 0.0) - prior.get(name, 0.0)
    return {"admission": admission, "qos": qos}


def cache_counts(after: Dict[str, Any], before: Dict[str, Any],
                 ops: int) -> Dict[str, float]:
    """Read-cache behaviour between two ``stats`` snapshots."""
    hits = delta(after, before, "readcache", "hits")
    misses = delta(after, before, "readcache", "misses")
    lookups = hits + misses
    return {
        "hit_rate": hits / lookups if lookups else 0.0,
        "evictions_per_kreq":
            delta(after, before, "readcache", "evictions") * 1000.0 / ops,
        "invalidations_per_kreq":
            delta(after, before, "readcache", "invalidations") * 1000.0 / ops,
        "fill_races": delta(after, before, "readcache", "fill_races"),
    }


def check_shape(workload: ServedWorkload, shed: Dict[str, float],
                cache: Dict[str, float]) -> None:
    """The run still exercises what the workload was chosen for."""
    if shed["admission"] or shed["qos"]:
        raise RunFailed(f"{workload.name}: server shed requests: {shed}")
    if workload.hit_rate is not None:
        low, high = workload.hit_rate
        if not low <= cache["hit_rate"] <= high:
            raise RunFailed(
                f"{workload.name}: cache hit rate {cache['hit_rate']:.3f} "
                f"outside [{low}, {high}]")


def run_end_to_end(workload: ServedWorkload, seed: int, seconds: float,
                   smoke: bool) -> Dict[str, Any]:
    """The untraced run: the seven end-to-end metrics of one workload."""
    if smoke:
        workload = workload.smoke_sized()
    sut, setup_s = set_up(workload, seed)
    try:
        saturated_s = seconds * SATURATED_SHARE
        prefix = int(workload.sim_ops * seconds / RUN_SECONDS)
        before = sut.stats()
        sat = sut.phase(saturated_streams(workload, seed),
                        seconds=saturated_s, min_ops=prefix,
                        window_s=SATURATED_WINDOW_S)
        after = sut.stats()
        with keep_awake():
            qd1 = sut.phase([workload.stream(seed, _LANE_QD1)], depth=1,
                            seconds=seconds - saturated_s, spin=True,
                            window_s=QD1_WINDOW_S)
        protocol_name = "bin" if sut.conns[0].binary else "json"
    finally:
        sut.stop()
    shed = shed_counts(after, before)
    cache = cache_counts(after, before, sat.completed)
    if not smoke:
        check_shape(workload, shed, cache)
    reads, writes = sim_prefix(sat, prefix)
    rows = sat.windows.closed
    if not rows or not qd1.windows.closed:
        raise RunFailed(f"{workload.name}: phase shorter than one window")
    return {
        "attempted": sat.issued + qd1.issued,
        "failed": sat.failed + qd1.failed,
        "metrics": {
            "setup_s": setup_s,
            "throughput_rps": stats.fast_rate(stats.rates(rows)),
            "qd1_latency_p50_ms": stats.fast_cost(window_p50s(qd1)),
            "cpu_ms_per_req": stats.fast_cost(stats.cpu_ms_per_op(rows)),
            "sim_read_p99_us": stats.quantile(reads, 0.99),
            "sim_write_avg_us": statistics.fmean(writes),
            "peak_rss_mb": sat.prefix_rss_mb,
        },
        "info": {
            "negotiated": protocol_name,
            "saturated_ops": sat.completed,
            "saturated_s": round(sat.seconds, 3),
            "rps_whole": stats.whole_rate(rows),
            "cpu_ms_per_req_whole": stats.whole_cpu_ms_per_op(rows),
            "qd1_ops": qd1.completed,
            "qd1_p50_whole_ms": stats.quantile(qd1.wall_s, 0.5) * 1000.0,
            "sim_read_samples": len(reads),
            "sim_write_samples": len(writes),
            "hit_rate": cache["hit_rate"],
            "sim_chunks_per_req":
                delta(after, before, "bridge", "sim_chunks") / sat.completed,
        },
        "exact": {},
    }


def probe(workload: ServedWorkload, seed: int, seconds: float,
          spans: SpanLog, smoke: bool) -> Dict[str, float]:
    """The traced served run: per-layer numbers of one workload's server,
    measured for ``seconds`` in all.

    The saturated phase alternates untraced and traced segments on the
    same server; the tracing overhead is the throughput the traced
    segments lose.  ``attempted`` in the result counts the data requests
    sent.
    """
    if smoke:
        workload = workload.smoke_sized()
    root = spans.open(f"rung5.tcp.{workload.name}")
    # A probe measures a quarter as long as a run, and warms up as much.
    sut, _ = set_up(dataclasses.replace(
        workload, warmup_ops=max(1, workload.warmup_ops // 4)), seed)
    try:
        before = sut.stats()
        segments = {False: [], True: []}
        streams = saturated_streams(workload, seed)
        for index in range(4):
            traced = bool(index % 2)
            parent = spans.open("driver.saturated", root) if traced else -1
            segments[traced].append(sut.phase(
                streams, seconds=seconds * 0.15,
                spans=spans if traced else None, span_parent=parent))
            if traced:
                spans.close(parent)
        after = sut.stats()
        parent = spans.open("driver.qd1", root)
        with keep_awake():
            qd1 = sut.phase([workload.stream(seed, _LANE_QD1)], depth=1,
                            seconds=seconds * 0.25, spin=True,
                            spans=spans, span_parent=parent)
        spans.close(parent)
        ping = sut.phase([_forever({"type": "ping"}) for _ in sut.conns],
                         seconds=seconds * 0.15)
        binary = sut.conns[0].binary
    finally:
        sut.stop()
        spans.close(root)
    phases = segments[False] + segments[True]
    ops = sum(p.completed for p in phases)
    wall = [w for p in phases for w in p.wall_s]
    shed = shed_counts(after, before)
    cache = cache_counts(after, before, ops)
    if not smoke:
        check_shape(workload, shed, cache)

    def rate(parts: List[PhaseResult]) -> float:
        return sum(p.completed for p in parts) / sum(p.seconds for p in parts)

    untraced = rate(segments[False])
    return {
        "attempted": sum(p.issued for p in phases) + qd1.issued,
        "trace.overhead_share": (untraced - rate(segments[True])) / untraced,
        "service.server.cpu_us_per_req":
            sum(p.server_cpu_s for p in phases) * 1e6 / ops,
        "service.server.ping_cpu_us": ping.server_cpu_s * 1e6 / ping.completed,
        "service.bridge.sim_chunks_per_req":
            delta(after, before, "bridge", "sim_chunks") / ops,
        "service.protocol.negotiated_bin": 1.0 if binary else 0.0,
        "service.qos.shed": shed["qos"],
        "service.admission.shed": shed["admission"],
        "service.readcache.hit_rate": cache["hit_rate"],
        "service.readcache.evictions_per_kreq": cache["evictions_per_kreq"],
        "service.readcache.invalidations_per_kreq":
            cache["invalidations_per_kreq"],
        "service.readcache.fill_races": cache["fill_races"],
        "service.client.gen_cpu_us_per_req":
            sum(p.gen_cpu_s for p in segments[False]) * 1e6
            / sum(p.completed for p in segments[False]),
        "service.client.rps_whole": untraced,
        "service.client.wall_p50_ms": stats.quantile(wall, 0.5) * 1000.0,
        "service.client.wall_p99_ms": stats.quantile(wall, 0.99) * 1000.0,
        "service.client.qd1_p50_whole_ms":
            stats.quantile(qd1.wall_s, 0.5) * 1000.0,
        "service.client.qd1_p99_ms": stats.quantile(qd1.wall_s, 0.99) * 1000.0,
    }


def _forever(request: Request) -> Iterator[Request]:
    while True:
        yield dict(request)
