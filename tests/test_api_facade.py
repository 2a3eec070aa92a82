"""The stable public API surface (``repro.api``).

Two contracts:

* every name in ``repro.api.__all__`` resolves, and resolves to the
  *same object* as its internal definition site (the facade re-exports,
  it does not wrap);
* the old deep import paths keep working -- the facade adds a stable
  surface without breaking anything that imported internals directly.
"""

import importlib

import repro.api


class TestFacadeSurface:
    def test_every_exported_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_all_is_sorted_by_layer_not_duplicated(self):
        assert len(set(repro.api.__all__)) == len(repro.api.__all__)

    def test_reexports_are_identities(self):
        # The facade must hand out the real objects: isinstance checks
        # and monkeypatching through either path see the same class.
        sites = {
            "RackConfig": "repro.cluster.config",
            "SystemType": "repro.cluster.config",
            "RunSpec": "repro.experiments.parallel",
            "ParallelRunner": "repro.experiments.parallel",
            "RackResult": "repro.experiments.runner",
            "FaultEvent": "repro.chaos.schedule",
            "FaultSchedule": "repro.chaos.schedule",
            "run_chaos_experiment": "repro.chaos.runner",
            "ChaosReport": "repro.chaos.runner",
            "RackService": "repro.service.server",
            "ServiceClient": "repro.service.client",
            "ClientConfig": "repro.service.client",
            "ServiceError": "repro.service.client",
            "LoadgenReport": "repro.service.loadgen",
            "run_loadgen": "repro.service.loadgen",
            "PROTOCOL_VERSION": "repro.service.protocol",
            "SUPPORTED_VERSIONS": "repro.service.protocol",
            "HashRing": "repro.service.shard",
            "KeyRange": "repro.service.shard",
            "RackShard": "repro.service.shard",
            "ShardRouter": "repro.service.router",
            "ShardedRackService": "repro.service.router",
            "ShardProxy": "repro.service.router",
            "build_shard_configs": "repro.service.router",
            "ReplicaSelector": "repro.service.selector",
            "Decision": "repro.service.selector",
            "ZipfSampler": "repro.service.loadgen",
            "FleetController": "repro.service.membership",
            "MembershipBusy": "repro.service.membership",
            "MembershipError": "repro.service.membership",
            "MigrationPlan": "repro.service.membership",
            "MigrationStream": "repro.service.migration",
            "MigrationStreamError": "repro.service.migration",
            "TenantSpec": "repro.service.qos",
            "TenantSpecError": "repro.service.qos",
            "load_tenant_specs": "repro.service.qos",
            "QosScheduler": "repro.service.qos",
            "ReadCache": "repro.service.readcache",
        }
        assert sorted(sites) == sorted(repro.api.__all__)
        for name, module_path in sites.items():
            module = importlib.import_module(module_path)
            assert getattr(repro.api, name) is getattr(module, name), name

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro.api import *", namespace)  # noqa: exec is the point
        exported = {k for k in namespace if not k.startswith("_")}
        assert exported == set(repro.api.__all__)


class TestOldPathsStillWork:
    def test_deep_module_paths(self):
        for path in (
            "repro.service.protocol",
            "repro.service.schema",
            "repro.service.shard",
            "repro.service.router",
            "repro.chaos.schedule",
        ):
            assert importlib.import_module(path), path
