"""``python -m bench noise``: is the benchmark steadier than its bounds?

Runs two sets of every workload on the same code, the sets alternating
(A B A B ...) so slow drift of the host lands on both.  Every run is a
fresh ``python -m bench run --workload W --seed S`` process, exactly
what the acceptance driver starts, and round ``r`` of either set uses
seed ``seed + r``: the driver gives every run its own seed, and equal
seeds in both sets let the simulated-time medians be compared without
the seed's share.  For every workload and end-to-end metric it prints
both medians, their relative difference, each set's spread (distance
between the quartiles over the median) and the bound, and it requires
the exact counts to be identical between the sets.  Exit status 1 on
any violation.
"""

import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

from bench import metrics
from bench.host import ROOT, RunFailed

#: Per-layer counts that depend on the seed alone, never on the host.
EXACT_PER_LAYER = (
    "cluster.rack.events_per_req", "cluster.rack.gc_runs",
    "cluster.rack.redirected_reads", "cluster.rack.gc_blocked_reads",
    "switch.recirculations", "flash.waf",
    "kvstore.events_per_get", "kvstore.events_per_put",
    "service.protocol.bytes_per_req_json", "service.protocol.bytes_per_req_bin",
)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _one_run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run in a process of its own: its metrics and exact counts."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{name} seed {seed}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    return {
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "exact": {line.split()[1]: int(line.split()[2])
                  for line in lines if line.startswith("exact ")},
    }


def run_noise(names: Sequence[str], seed: int, seconds: float, rounds: int,
              trace: bool = False) -> int:
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"A": [], "B": []} for name in names}
    for index in range(rounds):
        for label in ("A", "B"):
            for name in names:
                result = _one_run(name, seed + index, seconds, trace)
                runs[name][label].append(result)
                print(f"# round {index} set {label} {name}: "
                      f"{result['attempted']} attempted", flush=True)
    violations = 0
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    print(f"{'workload':12s} {'metric':42s} {'median A':>14s} {'median B':>14s} "
          f"{'diff':>7s} {'sprd A':>7s} {'sprd B':>7s} {'bound':>6s}")
    for name in names:
        sets = runs[name]
        for row in table:
            metric = row[0]
            a = [r["metrics"][metric] for r in sets["A"]]
            b = [r["metrics"][metric] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / abs(med_a) if med_a else 0.0
            spreads = [spread(v) if rounds >= 2 and statistics.median(v) else 0.0
                       for v in (a, b)]
            verdict = ""
            if trace:
                bound = float("nan")
                if metric in EXACT_PER_LAYER and a != b:
                    verdict = "  EXACT COUNT DIFFERS"
            else:
                bound = row[3]
                if diff > bound:
                    verdict = "  MEDIANS DIFFER"
                elif max(spreads) > bound:
                    verdict = "  SPREAD OVER BOUND"
            violations += bool(verdict)
            print(f"{name:12s} {metric:42s} {med_a:14.4f} {med_b:14.4f} "
                  f"{diff:7.3f} {spreads[0]:7.3f} {spreads[1]:7.3f} "
                  f"{bound:6.2f}{verdict}")
        exact_a = [r["exact"] for r in sets["A"]]
        exact_b = [r["exact"] for r in sets["B"]]
        if exact_a != exact_b:
            violations += 1
            print(f"{name:12s} EXACT COUNTS DIFFER: {exact_a} != {exact_b}")
        elif exact_a[0]:
            print(f"{name:12s} exact counts identical in both sets: {exact_a[0]}")
    print(f"# {violations} violation(s)")
    return 1 if violations else 0
