"""Recovery-invariant tests for the existing §3.7 failure paths.

These pin the properties the chaos engine's :class:`InvariantChecker`
audits at runtime: GC-bit fail-over steers *every* read, re-replication
restores the replication factor (and keeps the control-plane log in
step), and a switch reboot rebuilds tables identical to the registration
log -- including the redirect bits of servers that are still down.

Also includes the regression test for heartbeat tracking of servers
added to the rack after the :class:`FailureManager` was constructed.
"""

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import InvariantChecker, resolve_read_destination
from repro.cluster import FailureManager, Rack, RackConfig, SystemType
from repro.experiments.runner import run_until
from repro.net.packet import OpType, Packet
from repro.sim import Event
from repro.sim.core import MSEC

pytestmark = pytest.mark.chaos


def failed_world(num_servers=4):
    """A rack where pair 0's primary server has crashed and been detected."""
    config = RackConfig(system=SystemType.RACKBLOX, num_servers=num_servers,
                        num_pairs=num_servers, seed=13)
    rack = Rack(config)
    manager = FailureManager(rack, heartbeat_interval_us=2 * MSEC)
    manager.start()
    pair = rack.pairs[0]
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


class TestLateAddedServerHeartbeat:
    """Regression: servers added after FailureManager construction used
    to KeyError the heartbeat loop the first time they missed a beat."""

    def _world(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=2,
                            num_pairs=2, seed=13)
        rack = Rack(config)
        manager = FailureManager(rack, heartbeat_interval_us=2 * MSEC,
                                 miss_threshold=2)
        manager.start()
        rack.sim.run(until=rack.sim.now + 5 * MSEC)  # loop is ticking
        return rack, manager

    def _add_server(self, rack, ip="10.0.0.99"):
        newcomer = SimpleNamespace(ip=ip, alive=True, vssds=[])
        rack.servers.append(newcomer)
        rack.server_by_ip[ip] = newcomer
        return newcomer

    def test_dead_newcomer_is_detected_not_crashing_the_loop(self):
        rack, manager = self._world()
        newcomer = self._add_server(rack)
        newcomer.alive = False  # dies before its first tracked heartbeat
        # Pre-fix this raised KeyError inside the heartbeat process the
        # moment it health-checked the untracked IP.
        rack.sim.run(until=rack.sim.now + 10 * MSEC)
        assert newcomer.ip in rack.failed_ips
        assert manager.detected_at[newcomer.ip] > 0

    def test_live_newcomer_is_tracked_from_first_tick(self):
        rack, manager = self._world()
        newcomer = self._add_server(rack)
        rack.sim.run(until=rack.sim.now + 10 * MSEC)
        assert newcomer.ip not in rack.failed_ips
        newcomer.alive = False
        rack.sim.run(until=rack.sim.now + 10 * MSEC)
        assert newcomer.ip in rack.failed_ips


class TestGcBitFailover:
    def test_every_read_redirects_during_outage(self):
        rack, _manager, pair = failed_world()
        dead_ip = pair.primary_server_ip
        for _ in range(100):
            action = rack.switch.process_packet(
                Packet(op=OpType.READ, vssd_id=pair.primary.vssd_id)
            )
            assert action.redirected
            assert action.dst_ip == pair.replica_server_ip
            assert action.dst_ip != dead_ip

    def test_pure_walk_matches_data_plane(self):
        rack, _manager, pair = failed_world()
        dest, redirected = resolve_read_destination(
            rack.switch, pair.primary.vssd_id
        )
        assert redirected and dest == pair.replica_server_ip


class TestRereplicationInvariants:
    def test_replication_factor_restored_with_live_data(self):
        rack, manager, pair = failed_world()
        copied = rebuild(rack, manager, pair)
        assert copied == 40
        assert pair.primary.ftl.mapped_page_count() == 40
        checker = InvariantChecker(rack)
        for lpn in range(40):
            checker.note_acked_write(pair, lpn)
        assert checker.check_durable_writes("post-rebuild") == 0
        assert checker.check_replication_factor("post-rebuild") == 0

    def test_registration_log_follows_the_rebuild(self):
        rack, manager, pair = failed_world()
        dead_id = pair.primary.vssd_id
        rebuild(rack, manager, pair)
        new_id = pair.primary.vssd_id
        log = rack.control_plane.registration_log()
        assert dead_id not in log
        assert log[new_id][0] == pair.primary_server_ip
        # The survivor's log entry names the rebuilt member as its replica.
        assert log[pair.replica.vssd_id][1] == new_id
        assert InvariantChecker(rack).check_switch_tables("post-rebuild") == 0

    def test_switch_reboot_after_rebuild_reproduces_tables(self):
        rack, manager, pair = failed_world()
        rebuild(rack, manager, pair)
        manager.fail_and_recover_switch()
        assert InvariantChecker(rack).check_switch_tables("post-reboot") == 0
        action = rack.switch.process_packet(
            Packet(op=OpType.READ, vssd_id=pair.primary.vssd_id)
        )
        assert action.dst_ip == pair.primary_server_ip


class TestSwitchRebootInvariants:
    def test_tables_match_registration_log_when_healthy(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=4,
                            num_pairs=4, seed=13)
        rack = Rack(config)
        manager = FailureManager(rack)
        before = rack.switch
        manager.fail_and_recover_switch()
        assert rack.switch is not before
        assert InvariantChecker(rack).check_switch_tables("post-reboot") == 0

    def test_reboot_rearms_redirects_for_still_dead_servers(self):
        rack, manager, pair = failed_world()
        manager.fail_and_recover_switch()
        # Repopulation resets GC state; the redirect for the still-dead
        # primary must be re-armed or reads would black-hole.
        dest, redirected = resolve_read_destination(
            rack.switch, pair.primary.vssd_id
        )
        assert redirected and dest == pair.replica_server_ip
        assert InvariantChecker(rack).check_reads_routable("post-reboot") == 0

    def test_recovery_after_reboot_clears_the_rearmed_bits(self):
        rack, manager, pair = failed_world()
        manager.fail_and_recover_switch()
        manager.recover_server(pair.primary_server_ip)
        dest, redirected = resolve_read_destination(
            rack.switch, pair.primary.vssd_id
        )
        assert not redirected and dest == pair.primary_server_ip
