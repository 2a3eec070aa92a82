"""Live serving layer: the rack (or a sharded fleet of racks) as a
network service.

The batch experiment engine drives a :class:`~repro.cluster.rack.Rack`
from scripts; this package puts the same rack behind an asyncio TCP
front-end so real clients can issue raw vSSD I/O and key-value
GET/PUT/SCAN over a small length-prefixed JSON wire protocol:

* :mod:`repro.service.protocol` -- framing, versioning (``hello``), the
  request/response schema, and the negotiated v2 binary codec for the
  hot ops (JSON stays the fallback and the handshake wire);
* :mod:`repro.service.schema` -- the one documented shape every
  ``stats`` payload follows;
* :mod:`repro.service.bridge` -- the sim-time bridge that injects live
  requests into the discrete-event simulator and completes asyncio
  futures when the simulated request finishes;
* :mod:`repro.service.admission` -- per-client token buckets and the
  global queue-depth cap (``BUSY`` shedding instead of unbounded queues);
* :mod:`repro.service.server` -- the TCP service with graceful drain;
* :mod:`repro.service.shard` / :mod:`repro.service.router` -- the
  consistent-hash ring and the multi-rack front-ends built on it;
* :mod:`repro.service.selector` -- load-aware replica read routing
  (power-of-two-choices) plus its deterministic test harness;
* :mod:`repro.service.membership` / :mod:`repro.service.migration` --
  the elastic-fleet control plane: online rack add/drain with live key
  migration behind an epoch-stamped ring;
* :mod:`repro.service.qos` / :mod:`repro.service.readcache` -- the
  multi-tenant layer: declared tenant specs, the weighted-fair QoS
  scheduler with SLO-burn tracking, and the sharded DRAM read-through
  cache with per-tenant capacity shares;
* :mod:`repro.service.client` -- a pipelined async client;
* :mod:`repro.service.loadgen` -- open/closed-loop load generation.
"""

from repro.service.admission import AdmissionController, WallClockTokenBucket
from repro.service.bridge import BridgeStats, SimTimeBridge
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.loadgen import (
    LoadgenReport,
    ZipfSampler,
    make_key_sampler,
    run_loadgen,
)
from repro.service.selector import (
    READ_POLICIES,
    Decision,
    ReplicaSelector,
    ReplicaStats,
)
from repro.service.membership import (
    FleetController,
    MembershipBusy,
    MembershipError,
    MigrationPlan,
)
from repro.service.migration import (
    MigrationStream,
    MigrationStreamError,
    StreamReport,
)
from repro.service.protocol import (
    BIN_CODEC,
    BIN_MAGIC,
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    BinFrameCodec,
    FrameDecoder,
    FrameError,
    FrameSplitter,
    FrameTooLarge,
    TruncatedFrame,
    UnencodableFrame,
    check_version,
    encode_frame,
    encode_frame_as,
    error_response,
    frame_is_binary,
    hello_response,
    ok_response,
    read_frame,
    write_frame,
)
from repro.service.qos import (
    DEFAULT_TENANT,
    QosScheduler,
    QosSpec,
    TenantSpec,
    TenantSpecError,
    load_tenant_specs,
)
from repro.service.readcache import ReadCache
from repro.service.router import (
    ShardedRackService,
    ShardProxy,
    ShardRouter,
    build_shard_configs,
)
from repro.service.server import RackService
from repro.service.shard import HashRing, KeyRange, RackShard

__all__ = [
    "AdmissionController",
    "WallClockTokenBucket",
    "BridgeStats",
    "SimTimeBridge",
    "ServiceClient",
    "ClientConfig",
    "ServiceError",
    "LoadgenReport",
    "run_loadgen",
    "ZipfSampler",
    "make_key_sampler",
    "READ_POLICIES",
    "Decision",
    "ReplicaSelector",
    "ReplicaStats",
    "BIN_CODEC",
    "BIN_MAGIC",
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "BinFrameCodec",
    "FrameDecoder",
    "FrameError",
    "FrameSplitter",
    "FrameTooLarge",
    "TruncatedFrame",
    "UnencodableFrame",
    "check_version",
    "encode_frame",
    "encode_frame_as",
    "error_response",
    "frame_is_binary",
    "hello_response",
    "ok_response",
    "read_frame",
    "write_frame",
    "RackService",
    "HashRing",
    "KeyRange",
    "RackShard",
    "ShardRouter",
    "ShardedRackService",
    "ShardProxy",
    "build_shard_configs",
    "FleetController",
    "MembershipBusy",
    "MembershipError",
    "MigrationPlan",
    "MigrationStream",
    "MigrationStreamError",
    "StreamReport",
    "DEFAULT_TENANT",
    "TenantSpec",
    "TenantSpecError",
    "QosSpec",
    "QosScheduler",
    "load_tenant_specs",
    "ReadCache",
]
