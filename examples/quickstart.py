#!/usr/bin/env python3
"""Quickstart: build a RackBlox rack, run YCSB, compare against VDC.

This is the five-minute tour: two simulated racks -- one running the
uncoordinated VDC baseline, one running RackBlox's network-storage
co-design -- serve the same YCSB workload (50% writes, zipfian keys), and
we print the end-to-end latency profile of each.

Run:
    python examples/quickstart.py
"""

from repro.cluster import RackConfig, SystemType
from repro.experiments.runner import run_rack_experiment
from repro.workloads import ycsb


def main() -> None:
    workload = ycsb(write_ratio=0.5)  # YCSB-A: 50% reads, 50% writes
    print(f"workload: {workload.name} (zipfian, theta={workload.zipf_theta})\n")

    results = {}
    for system in (SystemType.VDC, SystemType.RACKBLOX):
        config = RackConfig(
            system=system,
            num_servers=4,   # four storage servers behind one ToR switch
            num_pairs=4,     # four replicated vSSDs (primary + replica)
            seed=42,
        )
        results[system] = run_rack_experiment(
            config, workload, requests_per_pair=2000, rate_iops_per_pair=1500
        )

    print(f"{'':24s}{'VDC':>12s}{'RackBlox':>12s}")
    vdc = results[SystemType.VDC]
    rb = results[SystemType.RACKBLOX]
    rows = [
        ("read avg (us)", "read_avg_us"),
        ("read P99 (us)", "read_p99_us"),
        ("read P99.9 (us)", "read_p999_us"),
        ("write avg (us)", "write_avg_us"),
        ("write P99.9 (us)", "write_p999_us"),
    ]
    vdc_summary, rb_summary = vdc.summary(), rb.summary()
    for label, key in rows:
        print(f"{label:24s}{vdc_summary[key]:>12.0f}{rb_summary[key]:>12.0f}")

    print()
    print(f"GC passes during the run:   VDC={vdc.gc_runs}  RackBlox={rb.gc_runs}")
    print(f"reads redirected by switch: VDC={vdc.redirects}  RackBlox={rb.redirects}")
    speedup = vdc_summary["read_p999_us"] / rb_summary["read_p999_us"]
    print(f"\nRackBlox read P99.9 improvement over VDC: {speedup:.1f}x")
    print("(the paper reports up to 4.4x on the YCSB sweep, Figure 9)")


if __name__ == "__main__":
    main()
