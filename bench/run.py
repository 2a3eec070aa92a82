"""One run of one workload: end to end (untraced) or per layer (traced)."""

import json
import os
from typing import Any, Dict

from bench import host, ladder, metrics, micro, served, simbatch, workloads
from bench.spans import SpanLog

#: Where the traced run writes its spans.
OUT_DIR = os.path.join(host.ROOT, ".bench_out")
#: Requests per ladder rung and measured seconds per rung-5 probe, for
#: each second of ``--seconds``.
LADDER_OPS_PER_S = 400
PROBE_SHARE = 0.25


def _end_to_end(name: str, seed: int, seconds: float,
                smoke: bool) -> Dict[str, Any]:
    if name == workloads.SIM_BATCH_NAME:
        return simbatch.run_end_to_end(seed, seconds, smoke)
    return served.run_end_to_end(workloads.SERVED[name], seed, seconds, smoke)


def _traced(name: str, seed: int, seconds: float,
            smoke: bool) -> Dict[str, Any]:
    """Micro timings, ladder rungs 0-4, then rung 5 over TCP.

    Rung 5 always runs the ``raw_qd32`` server (the ladder's stream);
    ``kv_hot`` and ``fleet_mixed`` add a probe of their own server for
    the numbers that describe a workload rather than a layer.
    ``sim_batch`` has no wire, so its traced run reports ``raw_qd32``'s.
    """
    spans = SpanLog()
    out = micro.run(seed, 4000)
    out.update(ladder.run(seed, max(200, int(LADDER_OPS_PER_S * seconds)),
                          spans))
    raw = served.probe(workloads.RAW_QD32, seed, seconds * PROBE_SHARE, spans,
                       smoke)
    own = raw
    if name in workloads.SERVED and name != workloads.RAW_QD32.name:
        own = served.probe(workloads.SERVED[name], seed,
                           seconds * PROBE_SHARE, spans, smoke)
    attempted = own.pop("attempted")
    out.update(own)
    out["service.server.self_us_per_req"] = (
        raw["service.server.cpu_us_per_req"]
        - out["service.bridge.host_us_per_req_qd32"])
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    spans.write(path)
    return {"attempted": attempted, "failed": 0, "metrics": out,
            "info": {"spans": len(spans.spans), "span_file": path},
            "exact": {}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """Run one workload; raises ``RunFailed``/``DriverError`` on a wrong
    or missing answer.  The result holds ``metrics`` (exactly the
    end-to-end or the per-layer names), ``attempted``, ``failed``,
    ``exact`` counts and free-form ``info``."""
    ticks = host.cpu_ticks()
    slices = host.calibrate()
    result = (_traced if trace else _end_to_end)(name, seed, seconds, smoke)
    summary = host.calibration_summary(slices + host.calibrate())
    summary["host.steal_share"] = host.steal_share(ticks, host.cpu_ticks())
    if trace:
        result["metrics"].update(summary)
    result["info"].update(summary)
    expected = [row[0] for row in (metrics.PER_LAYER if trace
                                   else metrics.END_TO_END)]
    if sorted(result["metrics"]) != sorted(expected):
        raise RuntimeError(
            f"metrics {sorted(set(result['metrics']) ^ set(expected))} "
            "are reported or declared, not both")
    result["metrics"] = {key: float(result["metrics"][key]) for key in expected}
    return result


def report(name: str, seed: int, result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    info = dict(result["info"], seed=seed, **host.host_record())
    print(f"# workload {name}")
    print(f"# host {json.dumps(info, sort_keys=True)}")
    if info["host.calib_spread"] > host.DISTURBED_SPREAD:
        print(f"# WARNING host was disturbed: the slowest calibration slice "
              f"ran {info['host.calib_spread']:.0%} over the fastest; the "
              f"hypervisor took {info['host.steal_share']:.0%} of the CPU time")
    for key, value in result["metrics"].items():
        print(f"{key:45s} {value:16.6f} {metrics.UNITS[key]}")
    for key, value in result["exact"].items():
        print(f"exact {key:39s} {value:16d} count")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": metrics.UNITS[key]}
                    for key, value in result["metrics"].items()},
    }), flush=True)
