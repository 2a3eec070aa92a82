#!/usr/bin/env python3
"""Device/network pairing study (§4.5.3, Figures 19-20).

Coordinated I/O scheduling hides network latency behind storage latency
and vice versa -- so the benefit is largest when the two sides are
matched.  This example sweeps three SSD classes against three network
regimes and prints RackBlox's P99.9 improvement over VDC for each pairing.

Run:
    python examples/device_network_pairing.py        (few minutes)
"""

from repro.cluster import RackConfig, SystemType
from repro.experiments.runner import run_rack_experiment
from repro.flash.timing import profile_by_name
from repro.net.latency import profile_by_name as net_by_name
from repro.workloads import ycsb

DEVICES = ("optane", "intel-dc", "pssd")
NETWORKS = ("fast", "medium", "slow")


def run_cell(system, device, network):
    config = RackConfig(
        system=system,
        device_profile=profile_by_name(device),
        network_profile=net_by_name(network),
        num_servers=4, num_pairs=4, seed=42,
    )
    return run_rack_experiment(
        config, ycsb(0.5), requests_per_pair=1500, rate_iops_per_pair=1500
    )


def main() -> None:
    print("YCSB-A (50% writes); cells are RackBlox's P99.9 read-latency")
    print("improvement over VDC (higher = co-design matters more)\n")
    corner = "SSD / network"
    header = f"{corner:>14s}" + "".join(f"{n:>10s}" for n in NETWORKS)
    print(header)
    for device in DEVICES:
        cells = []
        for network in NETWORKS:
            vdc = run_cell(SystemType.VDC, device, network)
            rb = run_cell(SystemType.RACKBLOX, device, network)
            improvement = (
                vdc.metrics.read_total.p999() / rb.metrics.read_total.p999()
            )
            cells.append(improvement)
        row = f"{device:>14s}" + "".join(f"{c:>9.1f}x" for c in cells)
        print(row)
    print("\npaper's conclusion: pair fast storage with fast networks --")
    print("upgrading only one side leaves the other dominating the tail.")


if __name__ == "__main__":
    main()
