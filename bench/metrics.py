"""The names every later claim uses: metric tables of the benchmark.

``BENCHMARK.json`` at the repository root carries the same tables for
the driver; ``bench/test_smoke.py`` checks the two agree.
"""

from typing import List, Tuple

#: name, unit, better, bound (share of the parent's median the metric
#: may worsen by before a change is rejected).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "req/s", "higher", 0.25),
    ("qd1_latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_req", "ms", "lower", 0.25),
    ("sim_read_p99_us", "sim-us", "lower", 0.2),
    ("sim_write_avg_us", "sim-us", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: name, unit, better.  Grouped by the module the number belongs to.
PER_LAYER: List[Tuple[str, str, str]] = [
    # sim
    ("sim.raw_us_per_event", "us", "lower"),
    # cluster.rack and the model beneath it (ladder rung 1)
    ("cluster.rack.host_us_per_req", "us", "lower"),
    ("cluster.rack.host_us_per_event", "us", "lower"),
    ("cluster.rack.issue_us", "us", "lower"),
    ("cluster.rack.events_per_req", "count", "lower"),
    ("cluster.rack.gc_runs", "count", "lower"),
    ("cluster.rack.redirected_reads", "count", "higher"),
    ("cluster.rack.gc_blocked_reads", "count", "lower"),
    ("switch.recirculations", "count", "lower"),
    ("flash.waf", "ratio", "lower"),
    # kvstore (rung 2)
    ("kvstore.get_host_us", "us", "lower"),
    ("kvstore.put_host_us", "us", "lower"),
    ("kvstore.scan_host_us", "us", "lower"),
    ("kvstore.events_per_get", "count", "lower"),
    ("kvstore.events_per_put", "count", "lower"),
    # service.bridge (rung 3)
    ("service.bridge.host_us_per_req_qd32", "us", "lower"),
    ("service.bridge.host_us_per_req_qd1", "us", "lower"),
    ("service.bridge.self_us_per_req", "us", "lower"),
    ("service.bridge.submit_us", "us", "lower"),
    ("service.bridge.sim_chunks_per_req", "count", "lower"),
    # service.router / service.shard (rung 4)
    ("service.router.host_us_per_req", "us", "lower"),
    ("service.router.self_us_per_req", "us", "lower"),
    ("service.router.scan_host_us", "us", "lower"),
    ("service.shard.node_for_us", "us", "lower"),
    ("service.shard.preference_us", "us", "lower"),
    # service.protocol
    ("service.protocol.encode_json_us", "us", "lower"),
    ("service.protocol.decode_json_us", "us", "lower"),
    ("service.protocol.encode_bin_us", "us", "lower"),
    ("service.protocol.decode_bin_us", "us", "lower"),
    ("service.protocol.bytes_per_req_json", "B", "lower"),
    ("service.protocol.bytes_per_req_bin", "B", "lower"),
    ("service.protocol.negotiated_bin", "count", "higher"),
    # service.server: front door + TCP (rung 5)
    ("service.server.ping_cpu_us", "us", "lower"),
    ("service.server.self_us_per_req", "us", "lower"),
    ("service.server.cpu_us_per_req", "us", "lower"),
    # service.qos / service.admission
    ("service.qos.admit_cycle_us", "us", "lower"),
    ("service.admission.try_admit_us", "us", "lower"),
    ("service.qos.shed", "count", "lower"),
    ("service.admission.shed", "count", "lower"),
    # service.readcache
    ("service.readcache.lookup_hit_us", "us", "lower"),
    ("service.readcache.lookup_miss_us", "us", "lower"),
    ("service.readcache.fill_us", "us", "lower"),
    ("service.readcache.invalidate_us", "us", "lower"),
    ("service.readcache.hit_rate", "ratio", "higher"),
    ("service.readcache.evictions_per_kreq", "count", "lower"),
    ("service.readcache.invalidations_per_kreq", "count", "lower"),
    ("service.readcache.fill_races", "count", "lower"),
    # service.client: the benchmark's own driver
    ("service.client.gen_cpu_us_per_req", "us", "lower"),
    ("service.client.rps_whole", "req/s", "higher"),
    ("service.client.wall_p50_ms", "ms", "lower"),
    ("service.client.wall_p99_ms", "ms", "lower"),
    ("service.client.qd1_p50_whole_ms", "ms", "lower"),
    ("service.client.qd1_p99_ms", "ms", "lower"),
    # host / trace
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_spread", "ratio", "lower"),
    ("host.steal_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
