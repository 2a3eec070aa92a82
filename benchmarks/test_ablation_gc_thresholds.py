"""Ablation: the soft/hard GC threshold gap (§3.5.1).

The soft threshold (35%) exists to give the switch room to *delay* GC
until the replica finishes.  Shrinking the gap toward the hard threshold
(25%) removes that room: soft requests arrive when GC can barely wait, so
more GCs overlap between replicas and redirection loses coverage.
"""

from conftest import BENCH_RATE, BENCH_SEED, run_once

from repro.cluster.config import RackConfig, SystemType
from repro.experiments import Sweep
from repro.experiments.runner import run_rack_experiment
from repro.workloads import ycsb


def run_soft_threshold(soft_threshold: float) -> dict:
    config = RackConfig(
        system=SystemType.RACKBLOX,
        soft_threshold=soft_threshold,
        gc_threshold=0.25,
        seed=BENCH_SEED,
    )
    result = run_rack_experiment(
        config, ycsb(0.6), requests_per_pair=2000,
        rate_iops_per_pair=BENCH_RATE,
    )
    return {
        "read_p999": result.metrics.read_total.p999(),
        "gc_delayed": result.switch_counters["gc_delayed"],
        "gc_accepted": result.switch_counters["gc_accepted"],
        "redirects": result.redirects,
    }


def sweep_soft_threshold():
    sweep = Sweep("Ablation", axes={"soft_threshold": [0.27, 0.35, 0.45]},
                  title="read P99.9 and GC admission vs soft GC threshold")
    return sweep.run(run_soft_threshold)


def test_ablation_gc_thresholds(benchmark):
    result = run_once(benchmark, sweep_soft_threshold)
    print()
    print(result.to_table())
    # Every configuration exercises the admission machinery.
    assert all(row["gc_accepted"] > 0 for row in result.rows)
    # A wider soft/hard gap gives the switch at least as much room to
    # delay overlapping GC.
    delays = {row["soft_threshold"]: row["gc_delayed"] for row in result.rows}
    assert delays["0.45"] >= delays["0.27"]
