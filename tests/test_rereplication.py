"""Tests for post-failure re-replication (§3.7)."""

import pytest

from repro.cluster import FailureManager, Rack, RackConfig, SystemType
from repro.errors import ConfigError
from repro.experiments.runner import run_until
from repro.net.packet import OpType, Packet
from repro.sim import Event
from repro.sim.core import MSEC


def failed_world(num_servers=4):
    """A rack where pair 0's primary server has crashed and been detected."""
    config = RackConfig(system=SystemType.RACKBLOX, num_servers=num_servers,
                        num_pairs=num_servers, seed=13)
    rack = Rack(config)
    manager = FailureManager(rack, heartbeat_interval_us=2 * MSEC)
    manager.start()
    pair = rack.pairs[0]
    # Put some live data on both replicas (state-level, no timing needed).
    for lpn in range(40):
        pair.primary.ftl.place_write(lpn)
        pair.replica.ftl.place_write(lpn)
    manager.fail_server(pair.primary_server_ip)
    rack.sim.run(until=rack.sim.now + 30 * MSEC)
    assert pair.primary_server_ip in rack.failed_ips
    return rack, manager, pair


def rebuild(rack, manager, pair, **kwargs):
    """Re-replicate ``pair`` to completion; the number of pages copied."""
    done = Event(rack.sim)
    manager.rereplicate_pair(pair, done.succeed, **kwargs)
    run_until(rack.sim, done)
    return done.value


class TestRereplication:
    def test_restores_pair_on_healthy_server(self):
        rack, manager, pair = failed_world()
        dead_vssd = pair.primary
        dead_ip = pair.primary_server_ip
        copied = rebuild(rack, manager, pair)
        assert copied == 40
        assert manager.rereplications == 1
        assert pair.primary is not dead_vssd
        assert pair.primary_server_ip != dead_ip
        assert pair.primary_server_ip not in rack.failed_ips
        # New member holds the survivor's live pages.
        assert pair.primary.ftl.mapped_page_count() == 40

    def test_target_avoids_both_current_servers(self):
        rack, manager, pair = failed_world()
        rebuild(rack, manager, pair)
        assert pair.primary_server_ip != pair.replica_server_ip

    def test_switch_tables_rewired(self):
        rack, manager, pair = failed_world()
        dead_id = pair.primary.vssd_id
        rebuild(rack, manager, pair)
        new_id = pair.primary.vssd_id
        assert dead_id not in rack.switch.replica_table
        assert new_id in rack.switch.replica_table
        assert rack.switch.replica_table.replica_of(pair.replica.vssd_id) == new_id
        assert (
            rack.switch.destination_table.server_ip(new_id)
            == pair.primary_server_ip
        )

    def test_reads_route_normally_after_rebuild(self):
        rack, manager, pair = failed_world()
        rebuild(rack, manager, pair)
        # The survivor's fail-over redirection bit was cleared: reads to
        # it are served locally again.
        action = rack.switch.process_packet(
            Packet(op=OpType.READ, vssd_id=pair.replica.vssd_id)
        )
        assert not action.redirected
        # And the rebuilt member is routable.
        action = rack.switch.process_packet(
            Packet(op=OpType.READ, vssd_id=pair.primary.vssd_id)
        )
        assert action.dst_ip == pair.primary_server_ip

    def test_copy_takes_simulated_time(self):
        rack, manager, pair = failed_world()
        before = rack.sim.now
        rebuild(rack, manager, pair)
        # 40 reads + 40 programs through the channels is not free.
        assert rack.sim.now - before > 40 * 0.8  # at least the program time

    def test_rejects_healthy_pair(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                            num_pairs=3, seed=13)
        rack = Rack(config)
        manager = FailureManager(rack)
        done = Event(rack.sim)
        with pytest.raises(ConfigError):
            manager.rereplicate_pair(rack.pairs[0], done.succeed)
        # Refused before anything was scheduled.
        rack.sim.run(until=10 * MSEC)
        assert not done.triggered and manager.rereplications == 0

    def test_explicit_dead_target_rejected(self):
        rack, manager, pair = failed_world()
        with pytest.raises(ConfigError):
            manager.rereplicate_pair(pair, lambda _copied: None,
                                     target_ip=pair.primary_server_ip)

    def test_workload_runs_against_rebuilt_pair(self):
        from repro.experiments.runner import run_rack_experiment
        from repro.workloads import ycsb

        rack, manager, pair = failed_world()
        rebuild(rack, manager, pair)
        config = rack.config
        result = run_rack_experiment(config, ycsb(0.3), requests_per_pair=200,
                                     rack=rack)
        s = result.metrics.summary()
        assert s["read_count"] + s["write_count"] == len(rack.pairs) * 200
