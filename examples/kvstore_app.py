#!/usr/bin/env python3
"""A key-value application on RackBlox, end to end.

A replicated KV store over the whole rack: the same PUT/GET traffic
served by VDC and by RackBlox, with the tail latency an *application*
would observe.

Run:
    python examples/kvstore_app.py
"""

import random

from repro.cluster import Rack, RackConfig, SystemType
from repro.experiments.runner import run_until
from repro.kvstore import RackKvStore


def rack_demo(system: SystemType):
    config = RackConfig(system=system, num_servers=4, num_pairs=4, seed=21)
    rack = Rack(config)
    rack.precondition()
    store = RackKvStore(rack)
    rng = random.Random(9)

    def workload():
        # Load phase.
        for i in range(400):
            yield rack.sim.spawn(store.put(f"item:{i}", f"payload-{i}"))
        # Mixed phase: zipf-ish hot reads + updates (GC builds up).
        for i in range(2500):
            if rng.random() < 0.5:
                hot = rng.randrange(40) if rng.random() < 0.8 else rng.randrange(400)
                yield rack.sim.spawn(store.get(f"item:{hot}"))
            else:
                yield rack.sim.spawn(store.put(f"item:{rng.randrange(400)}",
                                               f"update-{i}"))

    proc = rack.sim.spawn(workload())
    run_until(rack.sim, proc)
    return store, rack


def main() -> None:
    print("=== replicated KV store on the rack ===")
    results = {}
    for system in (SystemType.VDC, SystemType.RACKBLOX):
        store, rack = rack_demo(system)
        results[system] = (store, rack)
        reads = store.metrics.read_total
        writes = store.metrics.write_total
        print(f"  {system.value:10s} GET p50={reads.p50():6.0f}us "
              f"p99={reads.p99():7.0f}us p99.9={reads.p999():7.0f}us | "
              f"PUT p99={writes.p99():7.0f}us | "
              f"redirects={rack.redirect_count()} gc={rack.total_gc_runs()}")
    vdc_reads = results[SystemType.VDC][0].metrics.read_total
    rb_reads = results[SystemType.RACKBLOX][0].metrics.read_total
    print(f"\n  application-observed GET P99.9 improvement: "
          f"{vdc_reads.p999() / rb_reads.p999():.1f}x")


if __name__ == "__main__":
    main()
