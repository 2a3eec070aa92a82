"""The stable public API of the reproduction.

``import repro.api as rackblox`` and everything you are supposed to
build on is here, under names that will not move.  Internal module paths
(``repro.service.server``, ``repro.cluster.config``, ...) keep working
-- nothing is removed by this facade -- but they are implementation
layout, free to be reorganised; ``repro.api`` is the surface the
deprecation-shim test (``tests/test_api_facade.py``) holds stable.

The surface, by layer:

* **sim** (configuration for the discrete-event rack simulator) --
  :class:`RackConfig`, :class:`SystemType`;
* **experiments** (batch runs over the simulator) -- :class:`RunSpec`,
  :class:`ParallelRunner`, :class:`RackResult`;
* **service** (the live serving stack) -- :class:`RackService`,
  :class:`ServiceClient`, :class:`ClientConfig`, :class:`ServiceError`,
  :func:`run_loadgen`, :data:`PROTOCOL_VERSION`,
  :data:`SUPPORTED_VERSIONS`; sharding (:class:`HashRing`,
  :class:`RackShard`, :class:`ShardRouter`,
  :class:`ShardedRackService`, :class:`ShardProxy`,
  :func:`build_shard_configs`); load-aware read routing
  (:class:`ReplicaSelector`, :class:`Decision`, :class:`ZipfSampler`);
  the elastic fleet (:class:`FleetController`, :class:`MigrationPlan`,
  :class:`MigrationStream`, :class:`KeyRange`,
  :class:`MembershipError`, :class:`MembershipBusy`,
  :class:`MigrationStreamError`); multi-tenant QoS
  (:class:`TenantSpec`, :class:`TenantSpecError`,
  :func:`load_tenant_specs`, :class:`QosScheduler`,
  :class:`ReadCache`);
* **chaos** (fault injection) -- :class:`FaultEvent`,
  :class:`FaultSchedule`, :func:`run_chaos_experiment`,
  :class:`ChaosReport`.
"""

from repro.chaos.runner import ChaosReport, run_chaos_experiment
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.runner import RackResult
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.loadgen import LoadgenReport, ZipfSampler, run_loadgen
from repro.service.membership import (
    FleetController,
    MembershipBusy,
    MembershipError,
    MigrationPlan,
)
from repro.service.migration import MigrationStream, MigrationStreamError
from repro.service.protocol import PROTOCOL_VERSION, SUPPORTED_VERSIONS
from repro.service.qos import (
    QosScheduler,
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
from repro.service.selector import (
    Decision,
    ReplicaSelector,
)
from repro.service.server import RackService
from repro.service.shard import HashRing, KeyRange, RackShard

__all__ = [
    # sim: simulator configuration
    "RackConfig",
    "SystemType",
    # experiments: batch runs over the simulator
    "RunSpec",
    "ParallelRunner",
    "RackResult",
    # service: single-rack serving and the client
    "RackService",
    "ServiceClient",
    "ClientConfig",
    "ServiceError",
    "LoadgenReport",
    "run_loadgen",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    # service: sharded serving
    "HashRing",
    "RackShard",
    "ShardRouter",
    "ShardedRackService",
    "ShardProxy",
    "build_shard_configs",
    # service: load-aware read routing
    "ReplicaSelector",
    "Decision",
    "ZipfSampler",
    # service: elastic fleet
    "FleetController",
    "MigrationPlan",
    "MigrationStream",
    "KeyRange",
    "MembershipError",
    "MembershipBusy",
    "MigrationStreamError",
    # service: multi-tenant QoS and the read cache
    "TenantSpec",
    "TenantSpecError",
    "load_tenant_specs",
    "QosScheduler",
    "ReadCache",
    # chaos: fault injection
    "FaultEvent",
    "FaultSchedule",
    "run_chaos_experiment",
    "ChaosReport",
]
