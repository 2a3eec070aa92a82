"""Multi-tenant QoS: tenant specs, the weighted-fair scheduler, and the
DRAM read-through cache.

All pure-logic tests -- no sockets, no simulator.  The live drills
(tenant hello over TCP, the cache across a migration, per-tenant
loadgen lanes) live in ``test_service.py``/``test_migration.py`` and
``benchmarks/test_qos_isolation.py``.
"""

import json

import pytest

from repro.service.qos import (
    DEFAULT_TENANT,
    QosScheduler,
    TenantSpec,
    TenantSpecError,
    load_tenant_specs,
)
from repro.service.readcache import NO_FILL, ReadCache
from repro.service import schema

pytestmark = pytest.mark.qos


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("gold")
        assert spec.weight == 1.0 and spec.rate_per_sec == 0.0
        assert spec.cache_share == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="has space"),
        dict(name="x", weight=0),
        dict(name="x", weight=-1),
        dict(name="x", slo_ms=0),
        dict(name="x", burst=0),
        dict(name="x", rate_per_sec=-1),
        dict(name="x", cache_share=-0.5),
        dict(name="x", weight=True),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(TenantSpecError):
            TenantSpec(**kwargs)

    def test_zero_share_and_zero_rate_are_legal(self):
        # 0 disables metering / caching, it is not an error.
        TenantSpec("x", rate_per_sec=0, cache_share=0)


class TestLoadTenantSpecs:
    def test_inline_list(self):
        spec = load_tenant_specs('[{"name": "gold", "weight": 3}]')
        assert spec.tenants["gold"].weight == 3
        assert spec.cache_capacity > 0  # default sizing applies

    def test_inline_object_with_cache_sizing(self):
        spec = load_tenant_specs(json.dumps({
            "tenants": [{"name": "a"}, {"name": "b", "rate_per_sec": 100}],
            "cache_capacity": 512,
            "cache_segments": 4,
        }))
        assert sorted(spec.tenants) == ["a", "b"]
        assert spec.cache_capacity == 512 and spec.cache_segments == 4

    def test_file_path(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('[{"name": "gold"}]')
        assert "gold" in load_tenant_specs(str(path)).tenants

    @pytest.mark.parametrize("source,match", [
        ("/no/such/file.json", "neither inline JSON"),
        ("[{]", "not valid JSON"),
        ('[{"name": "a", "nope": 1}]', "unknown tenant spec"),
        ('[{"weight": 2}]', "need a 'name'"),
        ('[{"name": "a"}, {"name": "a"}]', "duplicate"),
        ('{"tenants": [], "cache_capacity": -1}', "cache_capacity"),
        ('{"tenants": [], "cache_segments": 0}', "cache_segments"),
        ('{"tenants": {}}', "must be a list"),
        ('{"extra": 1}', "unknown top-level"),
        ("42", "neither inline JSON"),
        ("[42]", "must be objects"),
    ])
    def test_rejects_malformed(self, source, match):
        with pytest.raises(TenantSpecError, match=match):
            load_tenant_specs(source)


class TestQosScheduler:
    def test_default_tenant_always_exists(self):
        qos = QosScheduler(None)
        assert qos.knows(DEFAULT_TENANT)
        assert qos.tenant_names == [DEFAULT_TENANT]
        assert qos.try_admit(DEFAULT_TENANT)

    def test_unknown_tenant_falls_back_to_default(self):
        qos = QosScheduler(None)
        assert qos.try_admit("stranger")
        assert qos.stats_section()[DEFAULT_TENANT]["admitted"] == 1.0

    def test_shares_follow_weights(self):
        qos = QosScheduler([TenantSpec("gold", weight=3),
                            TenantSpec("bronze", weight=1)],
                           max_queue_depth=100)
        # gold:bronze:default = 3:1:1 over 100 slots.
        shares = qos.stats_section()
        assert shares["gold"]["share"] == pytest.approx(60.0)
        assert shares["bronze"]["share"] == pytest.approx(20.0)

    def test_rate_gate_sheds_regardless_of_idle_capacity(self):
        import time

        qos = QosScheduler([TenantSpec("metered", rate_per_sec=10, burst=2)])
        now = time.monotonic()  # the bucket's clock base is monotonic
        assert qos.try_admit("metered", now)
        assert qos.try_admit("metered", now)
        assert not qos.try_admit("metered", now)  # bucket empty, queue idle
        stats = qos.stats_section()["metered"]
        assert stats["shed_rate_limited"] == 1.0
        # The bucket refills with wall time.
        assert qos.try_admit("metered", now + 1.0)

    def test_over_share_admitted_while_uncontended(self):
        qos = QosScheduler([TenantSpec("solo")], max_queue_depth=64)
        # Way over its fair share, but the scheduler is idle: admit.
        for _ in range(30):
            assert qos.try_admit("solo")
            qos.on_submit("solo")

    def test_contention_clamps_to_fair_share(self):
        qos = QosScheduler([TenantSpec("hog"), TenantSpec("meek")],
                           max_queue_depth=12)
        # Fill the scheduler past the contention threshold with the hog.
        admitted = 0
        while qos.try_admit("hog"):
            qos.on_submit("hog")
            admitted += 1
        assert admitted >= 4  # its share, at least
        assert qos.stats_section()["hog"]["shed_over_share"] == 1.0
        # The meek tenant is under its guarantee: still admitted.
        assert qos.try_admit("meek")

    def test_slo_burn_scores_latency_and_failures(self):
        qos = QosScheduler([TenantSpec("t", slo_ms=10)])
        for _ in range(3):
            qos.on_submit("t")
        qos.on_complete("t", 5.0)            # within SLO
        qos.on_complete("t", 50.0)           # miss: too slow
        qos.on_complete("t", None, ok=False)  # miss: never answered
        stats = qos.stats_section()["t"]
        assert stats["completed"] == 3.0
        assert stats["slo_violations"] == 2.0
        assert stats["slo_burn"] == pytest.approx((2 / 3) / 0.01)
        assert stats["inflight"] == 0.0

    def test_stats_section_validates_against_schema(self):
        qos = QosScheduler([TenantSpec("gold", weight=2)])
        section = qos.stats_section()
        assert sorted(section) == [DEFAULT_TENANT, "gold"]
        for body in section.values():
            assert sorted(body) == sorted(schema.TENANT_FIELDS)

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(TenantSpecError, match="max_queue_depth"):
            QosScheduler(None, max_queue_depth=0)


class TestReadCache:
    def test_read_through_fill_then_hit(self):
        cache = ReadCache(64)
        hit, value, token = cache.lookup("k", "t")
        assert not hit and token != NO_FILL
        assert cache.fill("k", "v", "t", token)
        hit, value, _ = cache.lookup("k", "t")
        assert hit and value == "v"
        assert cache.hit_rate() == pytest.approx(0.5)
        assert cache.hits == 1

    def test_lru_evicts_within_the_filling_tenants_budget(self):
        # capacity 8, one segment: each tenant's budget is its share.
        cache = ReadCache(8, shares={"a": 1.0, "b": 1.0}, segments=1)
        for i in range(10):
            _, _, token = cache.lookup(f"a{i}", "a")
            cache.fill(f"a{i}", i, "a", token)
        # a's budget is 4: the oldest fills are gone, b is untouched.
        assert cache.entries == 4
        assert cache.evictions == 6
        assert cache.lookup("a9", "a")[0]
        assert not cache.lookup("a0", "a")[0]

    def test_zero_share_tenant_reads_through_without_filling(self):
        cache = ReadCache(64, shares={"freeloader": 0.0, "payer": 1.0})
        _, _, token = cache.lookup("k", "freeloader")
        assert token == NO_FILL
        assert not cache.fill("k", "v", "freeloader", token)
        assert cache.entries == 0
        # Any tenant's entry serves any tenant's lookup.
        _, _, token = cache.lookup("k", "payer")
        cache.fill("k", "v", "payer", token)
        assert cache.lookup("k", "freeloader")[0]

    def test_invalidation_beats_a_racing_fill(self):
        cache = ReadCache(64)
        _, _, token = cache.lookup("k", "t")     # read starts...
        cache.invalidate("k")                    # ...write completes first
        assert not cache.fill("k", "stale", "t", token)
        assert cache.fill_races == 1
        assert not cache.lookup("k", "t")[0]     # never serves "stale"

    def test_invalidate_purges_a_cached_entry(self):
        cache = ReadCache(64)
        _, _, token = cache.lookup("k", "t")
        cache.fill("k", "v1", "t", token)
        cache.invalidate("k")
        hit, _, token = cache.lookup("k", "t")
        assert not hit and token != NO_FILL      # miss, refillable
        assert cache.invalidations == 1

    def test_fence_drops_old_epoch_entries_and_inflight_fills(self):
        cache = ReadCache(64)
        _, _, inflight = cache.lookup("old", "t")
        _, _, token = cache.lookup("k", "t")
        cache.fill("k", "v", "t", token)
        cache.fence(epoch=1)
        assert not cache.fill("old", "v", "t", inflight)  # fill fenced
        assert not cache.lookup("k", "t")[0]              # entry fenced
        assert cache.stats_section()["epoch"] == 1.0

    def test_zero_capacity_cache_is_inert(self):
        cache = ReadCache(0)
        hit, _, token = cache.lookup("k", "t")
        assert not hit and token == NO_FILL
        cache.invalidate("k")                    # no-op, no crash
        assert cache.stats_section()["entries"] == 0.0

    def test_stats_section_matches_schema(self):
        cache = ReadCache(64)
        assert sorted(cache.stats_section()) == sorted(schema.READCACHE_FIELDS)

    @pytest.mark.parametrize("kwargs", [
        dict(capacity=-1), dict(capacity=8, segments=0),
    ])
    def test_bad_sizing_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReadCache(**kwargs)
