"""The stable public API of the reproduction.

``import repro.api as rackblox`` and everything you are supposed to
build on is here, under names that will not move.  Internal module paths
(``repro.service.server``, ``repro.cluster.config``, ...) keep working
-- nothing is removed by this facade -- but they are implementation
layout, free to be reorganised; ``repro.api`` is the surface the
deprecation-shim test (``tests/test_api_facade.py``) holds stable.

Importing ``repro.api`` loads nothing: each name's defining module is
imported on the name's first use, so a batch simulation never loads
the service (asyncio, ssl) and a served rack never loads the figure
runners.  ``repro.api`` is the only facade; the package ``__init__``
of each layer a run may skip (``repro.service``, ``repro.experiments``)
re-exports nothing, so import names from their defining modules there.

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

import importlib

#: Each public name -> the module that defines it, grouped by layer.
#: A name's module is imported on its first use (PEP 562), so a run
#: loads only the layers it touches.
_SITES = {
    # sim: simulator configuration
    "RackConfig": "repro.cluster.config",
    "SystemType": "repro.cluster.config",
    # experiments: batch runs over the simulator
    "RunSpec": "repro.experiments.parallel",
    "ParallelRunner": "repro.experiments.parallel",
    "RackResult": "repro.experiments.runner",
    # service: single-rack serving and the client
    "RackService": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ClientConfig": "repro.service.client",
    "ServiceError": "repro.service.client",
    "LoadgenReport": "repro.service.loadgen",
    "run_loadgen": "repro.service.loadgen",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "SUPPORTED_VERSIONS": "repro.service.protocol",
    # service: sharded serving
    "HashRing": "repro.service.shard",
    "RackShard": "repro.service.shard",
    "ShardRouter": "repro.service.router",
    "ShardedRackService": "repro.service.router",
    "ShardProxy": "repro.service.router",
    "build_shard_configs": "repro.service.router",
    # service: load-aware read routing
    "ReplicaSelector": "repro.service.selector",
    "Decision": "repro.service.selector",
    "ZipfSampler": "repro.service.loadgen",
    # service: elastic fleet
    "FleetController": "repro.service.membership",
    "MigrationPlan": "repro.service.membership",
    "MigrationStream": "repro.service.migration",
    "KeyRange": "repro.service.shard",
    "MembershipError": "repro.service.membership",
    "MembershipBusy": "repro.service.membership",
    "MigrationStreamError": "repro.service.migration",
    # service: multi-tenant QoS and the read cache
    "TenantSpec": "repro.service.qos",
    "TenantSpecError": "repro.service.qos",
    "load_tenant_specs": "repro.service.qos",
    "QosScheduler": "repro.service.qos",
    "ReadCache": "repro.service.readcache",
    # chaos: fault injection
    "FaultEvent": "repro.chaos.schedule",
    "FaultSchedule": "repro.chaos.schedule",
    "run_chaos_experiment": "repro.chaos.runner",
    "ChaosReport": "repro.chaos.runner",
}

__all__ = list(_SITES)


def __getattr__(name: str):
    try:
        module = _SITES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
