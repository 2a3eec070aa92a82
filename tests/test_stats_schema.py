"""The unified stats schema: assembly, aggregation, and validation.

``repro.service.schema`` is the single source of truth for what a
``stats`` payload looks like; these tests pin the validator against
hand-built payloads (good and subtly broken) and against the real
producers (a live bridge's payload must validate unchanged).
"""

import pytest

from repro.cluster.config import RackConfig, SystemType
from repro.metrics import ExperimentMetrics, LogHistogram, percentile
from repro.metrics.collector import RECORDERS
from repro.service import schema
from repro.service.bridge import SimTimeBridge

from tests import stats_schema


def bridge_section(**overrides):
    out = {field: 0.0 for field in schema.BRIDGE_FIELDS}
    out.update(overrides)
    return out


def single_rack_payload():
    return {
        "bridge": bridge_section(sim_now_us=123.0, completed=4.0),
        "metrics": {"read_count": 4.0, "read_p99_us": 90.0},
        "kvstore": {f: 0.0 for f in schema.KVSTORE_FIELDS},
        "admission": {f: 0.0 for f in schema.ADMISSION_FIELDS},
        "connections": 1.0,
    }


def sharded_payload(racks=2):
    payload = single_rack_payload()
    payload["router"] = {f: 0.0 for f in schema.ROUTER_FIELDS}
    payload["router"]["racks"] = float(racks)
    payload["shards"] = {
        str(i): {
            "bridge": bridge_section(sim_now_us=100.0 + i),
            "metrics": {},
            "kvstore": {f: 0.0 for f in schema.KVSTORE_FIELDS},
            "admission": {f: 0.0 for f in schema.ADMISSION_FIELDS},
        }
        for i in range(racks)
    }
    return payload


class TestValidate:
    def test_single_rack_payload_passes(self):
        stats_schema.validate_stats(single_rack_payload())

    def test_sharded_payload_passes(self):
        stats_schema.validate_stats(sharded_payload())

    def test_client_section_required_when_asked(self):
        payload = single_rack_payload()
        with pytest.raises(stats_schema.StatsSchemaError, match="client"):
            stats_schema.validate_stats(payload, client=True)
        payload["client"] = {f: 0.0 for f in schema.CLIENT_FIELDS}
        stats_schema.validate_stats(payload, client=True)

    def test_missing_section_named_in_error(self):
        payload = single_rack_payload()
        del payload["admission"]
        with pytest.raises(stats_schema.StatsSchemaError, match="admission"):
            stats_schema.validate_stats(payload)

    def test_non_numeric_field_rejected(self):
        payload = single_rack_payload()
        payload["bridge"]["completed"] = "4"
        with pytest.raises(stats_schema.StatsSchemaError, match="completed"):
            stats_schema.validate_stats(payload)

    def test_bool_is_not_a_number(self):
        payload = single_rack_payload()
        payload["bridge"]["inflight"] = True
        with pytest.raises(stats_schema.StatsSchemaError, match="inflight"):
            stats_schema.validate_stats(payload)

    def test_router_without_shards_rejected(self):
        payload = single_rack_payload()
        payload["router"] = {f: 0.0 for f in schema.ROUTER_FIELDS}
        with pytest.raises(stats_schema.StatsSchemaError, match="shards"):
            stats_schema.validate_stats(payload)

    def test_shards_without_router_rejected(self):
        payload = sharded_payload()
        del payload["router"]
        with pytest.raises(stats_schema.StatsSchemaError):
            stats_schema.validate_stats(payload)

    def test_router_section_carries_the_scan_reask_counter(self):
        payload = sharded_payload()
        assert "scan_reasks" in payload["router"]
        del payload["router"]["scan_reasks"]
        with pytest.raises(stats_schema.StatsSchemaError, match="scan_reasks"):
            stats_schema.validate_stats(payload)

    def test_migration_section_is_optional_but_typed(self):
        # Sharded payloads may carry the fleet's migration counters;
        # when present the section is validated like any other.
        payload = sharded_payload()
        stats_schema.validate_stats(payload)        # absent: fine
        payload["migration"] = {f: 0.0 for f in schema.MIGRATION_FIELDS}
        stats_schema.validate_stats(payload)        # present and complete: fine
        del payload["migration"]["epoch"]
        with pytest.raises(stats_schema.StatsSchemaError, match="epoch"):
            stats_schema.validate_stats(payload)
        payload["migration"]["epoch"] = "1"
        with pytest.raises(stats_schema.StatsSchemaError, match="epoch"):
            stats_schema.validate_stats(payload)

    def test_non_decimal_shard_key_rejected(self):
        payload = sharded_payload()
        payload["shards"]["rack-0"] = payload["shards"].pop("0")
        with pytest.raises(stats_schema.StatsSchemaError, match="decimal"):
            stats_schema.validate_stats(payload)

    def test_broken_shard_section_located(self):
        payload = sharded_payload()
        del payload["shards"]["1"]["kvstore"]
        with pytest.raises(stats_schema.StatsSchemaError, match=r"shards\['1'\]"):
            stats_schema.validate_stats(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(stats_schema.StatsSchemaError):
            stats_schema.validate_stats([("bridge", {})])

    def test_helpers(self):
        assert not stats_schema.is_sharded(single_rack_payload())
        payload = sharded_payload(racks=3)
        assert stats_schema.is_sharded(payload)
        assert stats_schema.shard_ids(payload) == [0, 1, 2]
        assert stats_schema.shard_ids(single_rack_payload()) == []


def tenant_section(**overrides):
    out = {field: 0.0 for field in schema.TENANT_FIELDS}
    out.update(overrides)
    return out


def readcache_section(**overrides):
    out = {field: 0.0 for field in schema.READCACHE_FIELDS}
    out.update(overrides)
    return out


class TestTenancySections:
    def test_tenants_and_readcache_validate(self):
        payload = single_rack_payload()
        payload["tenants"] = {"gold": tenant_section(weight=3.0)}
        payload["readcache"] = readcache_section(capacity=1024.0)
        stats_schema.validate_stats(payload)

    def test_readcache_missing_field_named(self):
        payload = single_rack_payload()
        payload["readcache"] = readcache_section()
        del payload["readcache"]["hit_rate"]
        with pytest.raises(stats_schema.StatsSchemaError, match="hit_rate"):
            stats_schema.validate_stats(payload)

    def test_tenants_must_be_a_non_empty_mapping(self):
        payload = single_rack_payload()
        payload["tenants"] = {}
        with pytest.raises(stats_schema.StatsSchemaError, match="non-empty"):
            stats_schema.validate_stats(payload)
        payload["tenants"] = ["gold"]
        with pytest.raises(stats_schema.StatsSchemaError, match="mapping"):
            stats_schema.validate_stats(payload)

    def test_broken_tenant_body_located(self):
        payload = single_rack_payload()
        payload["tenants"] = {"gold": tenant_section()}
        payload["tenants"]["gold"]["slo_burn"] = "0.5"
        with pytest.raises(stats_schema.StatsSchemaError, match="slo_burn"):
            stats_schema.validate_stats(payload)

    def test_assembled_with_tenancy_validates(self):
        bridge = SimTimeBridge(
            RackConfig(system=SystemType("rackblox"), num_servers=2,
                       num_pairs=2, seed=11),
            precondition=False,
        )
        payload = schema.assemble_server_stats(
            bridge.stats_payload(), {f: 0.0 for f in schema.ADMISSION_FIELDS},
            1,
            tenants={"default": tenant_section(weight=1.0)},
            readcache=readcache_section(capacity=4096.0, segments=8.0),
        )
        stats_schema.validate_stats(payload)
        assert payload["tenants"]["default"]["weight"] == 1.0
        assert payload["readcache"]["capacity"] == 4096.0


class TestAggregation:
    def test_counters_sum_and_clock_maxes(self):
        sections = [
            {"bridge": bridge_section(sim_now_us=200.0, completed=3.0),
             "kvstore": {"keys": 2.0}, "admission": {"admitted": 5.0}},
            {"bridge": bridge_section(sim_now_us=90.0, completed=4.0),
             "kvstore": {"keys": 1.0}, "admission": {"admitted": 7.0}},
        ]
        agg = schema.aggregate_sections(sections)
        assert agg["bridge"]["sim_now_us"] == 200.0
        assert agg["bridge"]["completed"] == 7.0
        assert agg["kvstore"]["keys"] == 3.0
        assert agg["admission"]["admitted"] == 12.0

    def test_merge_metric_summaries(self):
        # Two shards' histograms merge into the histogram of all their
        # samples: the fleet's p99 is the merged one, not the worst
        # shard's (900 here), and count and mean are exact.
        shards = [[100.0] * 150 + [400.0] * 2, [500.0] * 49 + [900.0]]
        sections = []
        for samples in shards:
            metrics = ExperimentMetrics(LogHistogram)
            for at, latency in enumerate(samples):
                metrics.record("read", latency, at=float(at))
            summary = metrics.summary()
            summary["write_count"] = None
            sections.append({"metrics": summary,
                             "histograms": metrics.histograms()})
        merged = schema.merge_metric_summaries(sections)
        everything = ExperimentMetrics(LogHistogram)
        for samples in shards:
            for at, latency in enumerate(samples):
                everything.record("read", latency, at=float(at))
        fleet = merged["metrics"]
        assert fleet["read_count"] == 202.0
        assert fleet["read_avg_us"] == pytest.approx(
            sum(map(sum, shards)) / 202)
        assert fleet["read_p99_us"] == everything.read_total.p99()
        assert fleet["read_p99_us"] == pytest.approx(
            percentile(shards[0] + shards[1], 99.0), rel=0.01)
        assert fleet["read_p99_us"] < 890.0  # not the worst shard's tail
        # Rates sum (each shard runs its own clock); nulls are skipped.
        assert fleet["read_kiops"] == pytest.approx(
            sum(s["metrics"]["read_kiops"] for s in sections))
        assert "write_count" not in fleet
        wire = dict(merged["histograms"]["read_total"])
        want = everything.read_total.to_wire()
        assert wire.pop("sum") == pytest.approx(want.pop("sum"))
        assert wire == want

    def test_tenancy_sections_absent_stay_absent(self):
        agg = schema.aggregate_sections([
            {"bridge": bridge_section()}, {"bridge": bridge_section()},
        ])
        assert "tenants" not in agg and "readcache" not in agg

    def test_assemble_server_stats_validates(self):
        bridge = SimTimeBridge(
            RackConfig(system=SystemType("rackblox"), num_servers=2,
                       num_pairs=2, seed=11),
            precondition=False,
        )
        payload = schema.assemble_server_stats(
            bridge.stats_payload(), {f: 0.0 for f in schema.ADMISSION_FIELDS},
            3,
        )
        stats_schema.validate_stats(payload)
        assert payload["connections"] == 3.0
        assert sorted(payload["histograms"]) == sorted(RECORDERS)

    def test_broken_histogram_located(self):
        payload = sharded_payload()
        payload["shards"]["1"]["histograms"] = {
            "read_total": {"count": 2, "lo": 3, "counts": [1]}}
        with pytest.raises(stats_schema.StatsSchemaError,
                           match=r"shards\['1'\].*read_total"):
            stats_schema.validate_stats(payload)
