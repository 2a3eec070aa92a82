#!/usr/bin/env python3
"""Failure drill: crash a storage server mid-workload and keep serving.

RackBlox handles failures with heartbeats (§3.7): when a server dies, the
switch's GC-redirection machinery doubles as fail-over -- the dead
server's vSSDs get their GC bits set so Algorithm 1 steers reads to the
in-rack replicas, and clients drop the dead server from their write
fan-out.

Run:
    python examples/failure_drill.py
"""

from repro.cluster import FailureManager, Rack, RackConfig, SystemType
from repro.experiments.runner import run_rack_experiment
from repro.sim.core import MSEC
from repro.workloads import ycsb


def main() -> None:
    config = RackConfig(
        system=SystemType.RACKBLOX, num_servers=4, num_pairs=4, seed=11
    )
    rack = Rack(config)
    manager = FailureManager(rack, heartbeat_interval_us=5 * MSEC, miss_threshold=3)
    manager.start()

    victim_ip = rack.pairs[0].primary_server_ip
    victim = rack.server_by_ip[victim_ip]
    print(f"rack up: {len(rack.servers)} servers, {len(rack.pairs)} vSSD pairs")
    print(f"heartbeats every {manager.heartbeat_interval_us/1000:.0f} ms, "
          f"declared dead after {manager.miss_threshold} misses "
          f"(detection <= {manager.detection_delay_us/1000:.0f} ms)\n")

    print(f"[t={rack.sim.now/1000:.0f}ms] killing {victim.name} ({victim_ip}) -- "
          f"it hosts {len(victim.vssds)} vSSDs")
    manager.fail_server(victim_ip)
    rack.sim.run(until=rack.sim.now + 60 * MSEC)
    print(f"[t={rack.sim.now/1000:.0f}ms] heartbeat monitor detected "
          f"{manager.failures_detected} failure(s); failed set = "
          f"{sorted(rack.failed_ips)}")

    print("\nrunning YCSB (30% writes) against the degraded rack...")
    result = run_rack_experiment(
        config, ycsb(0.3), requests_per_pair=1000, rack=rack
    )
    s = result.summary()
    total = int(s["read_count"] + s["write_count"])
    print(f"  completed {total}/{4 * 1000} requests "
          f"(read P99.9 = {s['read_p999_us']:.0f} us)")
    print(f"  reads redirected around the dead server: {result.redirects}")

    print(f"\n[t={rack.sim.now/1000:.0f}ms] recovering {victim.name}")
    manager.recover_server(victim_ip)
    result = run_rack_experiment(config, ycsb(0.3), requests_per_pair=500,
                                 rack=rack)
    s = result.summary()
    print(f"  healthy again: {int(s['read_count'] + s['write_count'])}/"
          f"{4 * 500} requests completed, "
          f"read P99.9 = {s['read_p999_us']:.0f} us")


if __name__ == "__main__":
    main()
