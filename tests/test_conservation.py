"""Conservation and sanity invariants across the full rack.

End-to-end checks that hold for *every* system and workload: requests are
never lost or double-completed, INT never goes backwards, switch counters
add up, and flash accounting balances.
"""

import pytest

from repro.cluster import Rack, RackConfig, SystemType
from repro.experiments.runner import run_rack_experiment
from repro.workloads import ycsb

ALL_SYSTEMS = (
    SystemType.VDC,
    SystemType.RACKBLOX_SOFTWARE,
    SystemType.RACKBLOX,
    SystemType.RACKBLOX_COORD_IO,
)


def run(system, write_ratio=0.5, requests=400, seed=17):
    config = RackConfig(system=system, num_servers=3, num_pairs=3, seed=seed)
    rack = Rack(config)
    result = run_rack_experiment(
        config, ycsb(write_ratio), requests_per_pair=requests, rack=rack
    )
    return rack, result


class TestRequestConservation:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_every_request_completes_exactly_once(self, system):
        rack, result = run(system)
        m = result.metrics
        total = m.read_total.count + m.write_total.count
        assert total == 3 * 400
        # No pending entries leaked.
        assert len(rack._pending) == 0

    def test_a_request_dropped_at_a_dead_server_is_forgotten(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                            num_pairs=3, seed=17)
        rack = Rack(config)
        pair = rack.pairs[0]
        # The crash window: the server is down and no heartbeat has
        # noticed yet, so the switch still forwards to it.
        rack.server_by_ip[pair.primary_server_ip].alive = False
        dropped = [rack.issue_read(pair, lpn) for lpn in range(5)]
        served = rack.issue_read(rack.pairs[1], 0)
        rack.sim.run(until=rack.sim.now + 10_000.0)
        assert served.triggered
        # The callers still see silence (they time out as before)...
        assert not any(event.triggered for event in dropped)
        # ...but the rack no longer holds their events.
        assert len(rack._pending) == 0

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_switch_saw_every_data_packet(self, system):
        rack, result = run(system)
        m = result.metrics
        reads_at_switch = (
            rack.switch.reads_forwarded + rack.switch.reads_redirected
        )
        # Software redirects bypass the switch on the second leg, so the
        # switch sees each read exactly once regardless of system.
        assert reads_at_switch == m.read_total.count
        assert rack.switch.writes_forwarded == 2 * m.write_total.count

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_servers_completed_what_they_received(self, system):
        rack, _ = run(system)
        # Every read a server accepted was served exactly once; software
        # redirects hand the request to the replica server, which then
        # counts it as received and completes it there.
        total_completed = sum(s.reads_completed for s in rack.servers)
        total_received = sum(s.reads_received for s in rack.servers)
        total_redirected = sum(s.software_redirects for s in rack.servers)
        assert total_completed == total_received - total_redirected


class TestLatencySanity:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_latencies_positive_and_bounded(self, system):
        _, result = run(system)
        for recorder in (result.metrics.read_total, result.metrics.write_total):
            if recorder.count == 0:
                continue
            assert min(recorder.values) > 0
            assert max(recorder.values) < 10_000_000  # < 10 simulated seconds

    def test_storage_component_never_exceeds_total(self):
        _, result = run(SystemType.RACKBLOX)
        m = result.metrics
        # Aggregate property (per-request pairing is not retained).
        assert m.read_storage.mean() <= m.read_total.mean()
        assert m.read_storage.p999() <= m.read_total.p999()


class TestFlashAccounting:
    @pytest.mark.parametrize("system", (SystemType.VDC, SystemType.RACKBLOX))
    def test_ftl_invariants_after_run(self, system):
        rack, _ = run(system, write_ratio=0.7, requests=600)
        for vssd in rack.vssd_by_id.values():
            vssd.ftl.check_invariants()
            assert 0.0 <= vssd.free_block_ratio() <= 1.0

    def test_write_amplification_reasonable(self):
        rack, _ = run(SystemType.RACKBLOX, write_ratio=0.8, requests=800)
        for vssd in rack.vssd_by_id.values():
            wa = vssd.ftl.write_amplification()
            assert 1.0 <= wa < 5.0, vssd.name

    def test_gc_never_loses_mapped_pages(self):
        rack, _ = run(SystemType.RACKBLOX, write_ratio=0.7, requests=600)
        for vssd in rack.vssd_by_id.values():
            valid_pages = sum(
                b.valid_count for chip in vssd.ftl.chips for b in chip.blocks
            )
            assert valid_pages == vssd.ftl.mapped_page_count()
