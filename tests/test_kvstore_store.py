"""Tests for the replicated rack-backed KV store."""

import random

import pytest

from repro.cluster import Rack, RackConfig, SystemType
from repro.errors import ConfigError
from repro.experiments.runner import run_until
from repro.kvstore import RackKvStore
from repro.sim import Event
from repro.sim.core import MSEC


def make_store(system=SystemType.RACKBLOX):
    config = RackConfig(system=system, num_servers=3, num_pairs=3, seed=31)
    rack = Rack(config)
    return rack, RackKvStore(rack)


def run(rack, gen):
    proc = rack.sim.spawn(gen)
    run_until(rack.sim, proc)
    assert proc.ok
    return proc.value


class TestRackKvStore:
    def test_put_get_roundtrip(self):
        rack, store = make_store()
        latency = run(rack, store.put("user:1", "alice"))
        assert latency > 0
        value, read_latency = run(rack, store.get("user:1"))
        assert value == "alice"
        assert read_latency > 0

    def test_missing_key(self):
        rack, store = make_store()
        value, _ = run(rack, store.get("nope"))
        assert value is None
        assert store.misses == 1

    def test_overwrite(self):
        rack, store = make_store()
        run(rack, store.put("k", "v1"))
        run(rack, store.put("k", "v2"))
        value, _ = run(rack, store.get("k"))
        assert value == "v2"
        assert len(store) == 1

    def test_delete(self):
        rack, store = make_store()
        run(rack, store.put("k", "v"))
        run(rack, store.delete("k"))
        value, _ = run(rack, store.get("k"))
        assert value is None
        assert not store.contains("k")

    def test_keys_spread_across_pairs(self):
        rack, store = make_store()
        pairs_used = {store._route(f"key-{i}")[0] for i in range(200)}
        assert pairs_used == {0, 1, 2}

    def test_routing_is_stable(self):
        rack, store = make_store()
        assert store._route("stable-key") == store._route("stable-key")

    def test_writes_reach_both_replicas(self):
        rack, store = make_store()
        run(rack, store.put("k", "v"))
        assert rack.switch.writes_forwarded == 2

    def test_oversized_value_rejected_eagerly(self):
        rack, store = make_store()
        with pytest.raises(ConfigError):
            store.put("big", "x" * 5000)  # validation is pre-process

    def test_metrics_recorded(self):
        rack, store = make_store()
        run(rack, store.put("a", "1"))
        run(rack, store.get("a"))
        assert store.metrics.write_total.count == 1
        assert store.metrics.read_total.count == 1

    def test_bulk_load_and_read_back(self):
        rack, store = make_store()
        items = {f"key-{i}": f"value-{i}" for i in range(60)}

        def load():
            for key, value in items.items():
                yield rack.sim.spawn(store.put(key, value))

        run(rack, load())
        for key, value in list(items.items())[:20]:
            got, _ = run(rack, store.get(key))
            assert got == value

    def test_empty_rack_rejected(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                            num_pairs=3, seed=31)
        rack = Rack(config)
        rack.pairs = []
        with pytest.raises(ConfigError):
            RackKvStore(rack)


class TestScanIndex:
    """The ordered key index is the value map's keys, sorted, always."""

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_equals_sorting_the_value_map(self, seed):
        rng = random.Random(seed)
        rack, store = make_store()
        universe = [f"k{i:03d}" for i in range(0, 80, 2)]

        def mutate():
            for _ in range(120):
                key = rng.choice(universe)
                if rng.random() < 0.6:  # insert or overwrite
                    yield rack.sim.spawn(store.put(key, f"v{rng.random()}"))
                else:  # delete, of a missing key about half the time
                    yield rack.sim.spawn(store.delete(key))

        run(rack, mutate())
        assert store._keys == sorted(store._data)
        assert 0 < len(store) < len(universe)
        # Below, on, between and above the keys held.
        for start in ("", "a", "k000", "k013", "k040", "k079", "k999", "z"):
            for count in (1, 3, 10, 100):
                expected = sorted(
                    k for k in store._data if k >= start
                )[:count]
                items, _ = run(rack, store.scan(start, count))
                assert items == [(k, store._data[k]) for k in expected]

    def test_delete_landing_mid_scan_drops_the_key_from_the_answer(self):
        rack, store = make_store()
        for key in "abc":
            run(rack, store.put(key, key.upper()))
        scan = rack.sim.spawn(store.scan("a", 3))
        delete = rack.sim.spawn(store.delete("b"))
        run_until(rack.sim, scan)
        run_until(rack.sim, delete)
        assert scan.ok and delete.ok
        # The delete's write lands while the scan's page reads are out:
        # the answer is the keys still present when the scan completes.
        assert scan.value[0] == [("a", "A"), ("c", "C")]
        assert not store.contains("b")

    def test_short_page_still_means_the_keys_ran_out(self):
        """Callers page on ``len(items) < count``: a delete landing
        mid-scan must not shorten a page that has keys past it."""
        def scan_abcde(with_delete):
            rack, store = make_store()
            for key in "abcde":
                run(rack, store.put(key, key.upper()))
            scan = rack.sim.spawn(store.scan("a", 3))
            if with_delete:
                rack.sim.spawn(store.delete("b"))
            run_until(rack.sim, scan)
            assert scan.ok and store.scans == 1
            return scan.value

        items, one_round = scan_abcde(with_delete=False)
        assert items == [("a", "A"), ("b", "B"), ("c", "C")]
        # "b" vanishes from a full selection, so the scan reads on to "d".
        items, latency = scan_abcde(with_delete=True)
        assert items == [("a", "A"), ("c", "C"), ("d", "D")]
        assert latency > one_round  # the extra page read is timed

    def test_deleting_a_missing_key_does_not_create_it(self):
        rack, store = make_store()
        latency = run(rack, store.delete("ghost"))
        assert latency > 0  # still a timed replicated write
        assert not store.contains("ghost")
        assert len(store) == 0
        assert run(rack, store.get("ghost"))[0] is None
        assert run(rack, store.scan("", 10))[0] == []
        assert store.deletes == 1 and store.puts == 0


class TestCallbackCores:
    """``start_get`` / ``start_put`` / ``start_delete`` / ``start_scan`` are
    the machine; the generator methods only adapt them for callers that
    are processes."""

    def _sequence(self, seed=5):
        rng = random.Random(seed)
        keys = [f"k{i:02d}" for i in range(12)]
        ops = [("put", key, f"v-{key}") for key in keys[:8]]
        for _ in range(40):
            roll, key = rng.random(), rng.choice(keys)
            if roll < 0.4:
                ops.append(("get", key))
            elif roll < 0.7:
                ops.append(("put", key, f"v{rng.random()}"))
            elif roll < 0.9:
                ops.append(("delete", key))
            else:
                ops.append(("scan", key, 4))
        return ops

    def _play(self, through_cores):
        rack, store = make_store()
        results = []
        for name, *args in self._sequence():
            if through_cores:
                done = Event(rack.sim)
                getattr(store, "start_" + name)(*args, done.succeed)
            else:
                done = rack.sim.spawn(getattr(store, name)(*args))
            run_until(rack.sim, done)
            results.append(done.value)
        counters = (store.gets, store.puts, store.deletes, store.scans,
                    store.misses, len(store))
        samples = (list(store.metrics.read_total.values),
                   list(store.metrics.write_total.values))
        return results, counters, samples, rack.sim.event_count

    def test_cores_and_adapters_agree(self):
        cores = self._play(through_cores=True)
        adapters = self._play(through_cores=False)
        assert cores[:3] == adapters[:3]  # floats compared with ==
        assert cores[1][:4] != (0, 0, 0, 0) and cores[1][4] > 0
        # What an adapter adds is its process's start tick.
        assert adapters[3] - cores[3] == len(self._sequence())

    def test_a_replica_leg_lost_at_a_dead_server_never_completes(self):
        rack, store = make_store()
        pair = rack.pairs[store._route("k")[0]]
        rack.server_by_ip[pair.replica_server_ip].alive = False
        outcome = []
        store.start_put("k", "v", outcome.append)
        rack.sim.run(until=50 * MSEC)
        # The primary's ack arrived, the replica's leg died at the NIC:
        # the rack forgot it and the put neither completed nor applied.
        assert outcome == [] and not rack._pending
        assert store.puts == 0 and not store.contains("k")
        assert store.metrics.write_total.count == 0

    def test_an_error_in_a_continuation_surfaces_where_it_lands(self):
        rack, store = make_store()

        def boom(_latency):
            raise RuntimeError("caller's continuation failed")

        store.start_put("k", "v", boom)
        with pytest.raises(RuntimeError):
            rack.sim.run(until=50 * MSEC)
        # The store applied the write before handing it on.
        assert store.puts == 1 and store.contains("k")
