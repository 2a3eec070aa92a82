"""The one documented shape for every ``stats`` payload.

Three producers used to improvise their own dicts -- the bridge
(:meth:`BridgeStats.as_dict`), the server's ``stats`` response, and
:meth:`ServiceClient.stats` -- which left consumers key-guessing.  This
module is now the single source of truth: the section names, the fields
each section carries, and an assembler both server flavours use (the
tests validate live payloads against these names).

A **single-rack** stats payload looks like::

    {
      "bridge":     {sim_now_us, inflight, submitted, completed,
                     timed_out, sim_chunks},
      "metrics":    {...ExperimentMetrics.summary()...},
      "histograms": {read_total, write_total, read_storage,
                     write_storage},   # LogHistogram.to_wire() each
      "kvstore":    {keys, gets, puts, scans, misses},
      "admission":  {admitted, shed_queue_full, shed_rate_limited,
                     max_queue_depth, clients},
      "connections": <float>,
      "chaos":  {...}            # only when a fault schedule is armed
      "traces": {...}            # only when tracing samples
    }

The percentiles in ``metrics`` are read off the histograms (within 1 %
of the exact sample); counts and means are exact.

A **sharded** payload is a strict superset: the same top-level sections
hold the *aggregate* view (counters summed across shards; ``sim_now_us``
is the max), plus the fleet's own sections below.  Both fleet shapes
build it with one assembler (:func:`assemble_fleet_stats`), and a
fleet's latency is the shards' histograms merged bucket by bucket: one
sample is one request one rack executed, so a scatter scan or a
forwarded write counts once per leg.  Added::

    "router": {racks, virtual_nodes, routed, cross_rack_redirects,
               scatter_scans, scan_reasks, unroutable, gc_view_commits,
               epoch},
    "tenants": {"gold": {weight, slo_target_ms, share, admitted, ...},
                ...}           # when a tenant spec is configured
                               # (single-rack payloads may carry it too)
    "readcache": {capacity, segments, entries, hits, misses, hit_rate,
                  fills, fill_races, invalidations, evictions, epoch}
                               # when the DRAM read cache is on
    "migration": {keys_moved, bytes_streamed, batches, write_forwards,
                  aborts, cutovers, cleanup_deletes, racks_added,
                  racks_drained, epoch, active},
    "shards": {"0": {bridge, metrics, histograms, kvstore, admission
                     [, chaos]}, ...}
    "routing": {policy_p2c, decisions, p2c_picks, ..., "replicas":
                {"0": {depth, ewma_us, age_s}, ...}}
                               # only under --read-policy p2c

:meth:`ServiceClient.stats` adds one more section client-side::

    "client": {retries, reconnects, timeouts, bytes_sent,
               bytes_received, ring_refreshes}

All leaf values are numbers (floats on the wire) except inside
``metrics`` / ``traces`` / ``chaos``, whose keys are owned by their
producers (`ExperimentMetrics.summary`, the trace collector, the chaos
injector) and may be numbers or null, and ``histograms``, whose bodies
are :meth:`LogHistogram.to_wire` forms.
"""

from typing import Any, Dict, Mapping, Optional

from repro.metrics.collector import ExperimentMetrics
from repro.metrics.histogram import LogHistogram


# ------------------------------------------------------------- section names

SECTION_BRIDGE = "bridge"
SECTION_METRICS = "metrics"
SECTION_HISTOGRAMS = "histograms"
SECTION_KVSTORE = "kvstore"
SECTION_ADMISSION = "admission"
SECTION_CHAOS = "chaos"
SECTION_TRACES = "traces"
SECTION_CLIENT = "client"
SECTION_ROUTER = "router"
SECTION_MIGRATION = "migration"
SECTION_SHARDS = "shards"
SECTION_ROUTING = "routing"
SECTION_TENANTS = "tenants"
SECTION_READCACHE = "readcache"
FIELD_CONNECTIONS = "connections"
FIELD_ROUTING_REPLICAS = "replicas"

# ------------------------------------------------------------ section fields

BRIDGE_FIELDS = (
    "sim_now_us", "inflight", "submitted", "completed", "timed_out",
    "sim_chunks",
)
KVSTORE_FIELDS = ("keys", "gets", "puts", "scans", "misses")
ADMISSION_FIELDS = (
    "admitted", "shed_queue_full", "shed_rate_limited", "max_queue_depth",
    "clients",
)
CLIENT_FIELDS = (
    "retries", "reconnects", "timeouts", "bytes_sent", "bytes_received",
    "ring_refreshes",
)
ROUTER_FIELDS = (
    "racks", "virtual_nodes", "routed", "cross_rack_redirects",
    "scatter_scans", "scan_reasks", "unroutable", "gc_view_commits", "epoch",
)
#: Fleet-membership counters (:meth:`FleetController.stats_section`);
#: present on every sharded payload, absent from single-rack ones.
MIGRATION_FIELDS = (
    "keys_moved", "bytes_streamed", "batches", "write_forwards",
    "aborts", "cutovers", "cleanup_deletes", "racks_added",
    "racks_drained", "epoch", "active",
)
#: Load-aware read-routing counters (:class:`ReplicaSelector`); present
#: only when the fleet serves under ``--read-policy p2c`` -- the hash
#: policy's payload stays byte-identical to a selector-less fleet.
#: Alongside these scalars the section carries ``replicas``, a mapping
#: of rack index to that replica's live load view
#: (:data:`ROUTING_REPLICA_FIELDS`).
ROUTING_FIELDS = (
    "policy_p2c", "decisions", "p2c_picks", "p2c_diverted", "fallbacks",
    "stale_fallbacks", "migrating_fallbacks", "single_candidate",
    "no_live_fallbacks", "dead_skips",
)
ROUTING_REPLICA_FIELDS = ("depth", "ewma_us", "age_s")
#: Per-tenant QoS counters (:meth:`QosScheduler.stats_section`); the
#: section maps tenant name to one numeric map each, present only when
#: a tenant spec is configured on the front-end.
TENANT_FIELDS = (
    "weight", "slo_target_ms", "share", "admitted", "shed_rate_limited",
    "shed_over_share", "inflight", "completed", "slo_violations",
    "slo_burn",
)
#: DRAM read-cache counters (:meth:`ReadCache.stats_section`); present
#: only when the read-cache tier is enabled.
READCACHE_FIELDS = (
    "capacity", "segments", "entries", "hits", "misses", "hit_rate",
    "fills", "fill_races", "invalidations", "evictions", "epoch",
)

#: Sections every server payload must carry.
REQUIRED_SECTIONS = (
    SECTION_BRIDGE, SECTION_METRICS, SECTION_KVSTORE, SECTION_ADMISSION,
)

#: Aggregating a bridge section across shards: every counter sums except
#: the clock, which reads as the furthest-ahead shard.
_BRIDGE_MAX_FIELDS = ("sim_now_us",)
#: ``metrics`` keys a fleet reads off its merged histograms; every other
#: key (rates, redirect and chaos counters) sums across shards.
_HISTOGRAM_KEYS = ("_count", "_avg_us", "_p99_us", "_p999_us")


# ---------------------------------------------------------------- assembly


def assemble_server_stats(
    bridge_payload: Dict[str, Any],
    admission_stats: Dict[str, float],
    connections: int,
    tenants: Optional[Dict[str, Dict[str, float]]] = None,
    readcache: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """The canonical server-side ``stats`` response body.

    ``bridge_payload`` is ``SimTimeBridge.stats_payload()`` (bridge +
    metrics + kvstore + optional chaos/traces); this adds the admission
    and connection sections every server flavour owes its clients, plus
    the optional QoS sections when a tenant spec / read cache is live.
    """
    out = dict(bridge_payload)
    out[SECTION_ADMISSION] = dict(admission_stats)
    out[FIELD_CONNECTIONS] = float(connections)
    if tenants is not None:
        out[SECTION_TENANTS] = tenants
    if readcache is not None:
        out[SECTION_READCACHE] = readcache
    return out


def assemble_fleet_stats(
    shards: Dict[str, Dict[str, Any]],
    router: Dict[str, float],
    migration: Dict[str, float],
    connections: int,
    routing: Optional[Dict[str, Any]] = None,
    tenants: Optional[Dict[str, Dict[str, float]]] = None,
    readcache: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """The canonical sharded ``stats`` response body, for both fleet
    shapes.

    ``shards`` maps rack index to that rack's sections; they fold into
    the aggregate ones (:func:`aggregate_sections`,
    :func:`merge_metric_summaries`) and are kept as ``shards``.  The
    rest are the front-end's own sections; the optional ones appear
    only when given.
    """
    sections = list(shards.values())
    out = aggregate_sections(sections)
    out.update(merge_metric_summaries(sections))
    out[SECTION_ROUTER] = router
    out[SECTION_MIGRATION] = migration
    out[SECTION_SHARDS] = shards
    if routing is not None:
        out[SECTION_ROUTING] = routing
    if tenants is not None:
        out[SECTION_TENANTS] = tenants
    if readcache is not None:
        out[SECTION_READCACHE] = readcache
    out[FIELD_CONNECTIONS] = float(connections)
    return out


def aggregate_sections(shard_sections: "list[Dict[str, Any]]",
                       ) -> Dict[str, Any]:
    """Fold per-shard bridge/kvstore/admission sections into aggregates.

    Counters sum; ``sim_now_us`` is the max (each shard owns its own
    simulated clock, so "the" time is the furthest one).  ``metrics`` is
    not folded here: a fleet's latency is the shards' histograms merged
    bucket by bucket (:func:`merge_metric_summaries`).
    """
    agg: Dict[str, Any] = {
        SECTION_BRIDGE: {field: 0.0 for field in BRIDGE_FIELDS},
        SECTION_KVSTORE: {field: 0.0 for field in KVSTORE_FIELDS},
        SECTION_ADMISSION: {field: 0.0 for field in ADMISSION_FIELDS},
    }
    for section in shard_sections:
        for name, fields in (
            (SECTION_BRIDGE, BRIDGE_FIELDS),
            (SECTION_KVSTORE, KVSTORE_FIELDS),
            (SECTION_ADMISSION, ADMISSION_FIELDS),
        ):
            src = section.get(name, {})
            dst = agg[name]
            for field in fields:
                value = float(src.get(field, 0.0))
                if name == SECTION_BRIDGE and field in _BRIDGE_MAX_FIELDS:
                    dst[field] = max(dst[field], value)
                else:
                    dst[field] += value
    return agg


def merge_metric_summaries(sections: "list[Mapping[str, Any]]",
                           ) -> Dict[str, Any]:
    """Fold per-shard ``metrics`` + ``histograms`` sections into the
    fleet's: the one way either fleet shape gathers its latency.

    The histograms merge bucket by bucket, so the fleet's counts, means
    and percentiles are those of one histogram of every shard's samples
    -- a sample per request a rack executed, so a scatter scan or a
    forwarded write counts once per leg.  Rates and counters sum: each
    shard runs its own simulated clock, so the fleet's kIOPS is the sum
    of its racks'.
    """
    merged = ExperimentMetrics(LogHistogram)
    summary: Dict[str, float] = {}
    for section in sections:
        merged.merge_histograms(section.get(SECTION_HISTOGRAMS, {}))
        for key, value in section.get(SECTION_METRICS, {}).items():
            if value is not None and not key.endswith(_HISTOGRAM_KEYS):
                summary[key] = summary.get(key, 0.0) + float(value)
    for key, value in merged.summary().items():
        if key.endswith(_HISTOGRAM_KEYS):
            summary[key] = value
    return {SECTION_METRICS: summary,
            SECTION_HISTOGRAMS: merged.histograms()}
