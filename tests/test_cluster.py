"""Integration tests: the full rack under all four systems."""

import os
import sys
from functools import partial

import pytest

from repro.cluster import (
    Client,
    FailureManager,
    Rack,
    RackConfig,
    SystemType,
    rack_aware_placement,
)
from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.runner import run_rack_experiment
from repro.experiments.parallel import RunSpec
from repro.metrics.collector import ExperimentMetrics
from repro.net.packet import OpType, Packet
from repro.sim import AllOf
from repro.sim.core import MSEC
from repro.vssd import ChannelGroup
from repro.workloads import OpenLoopGenerator, ycsb


def small_config(system=SystemType.RACKBLOX, **kwargs):
    defaults = dict(system=system, num_servers=3, num_pairs=3, seed=123)
    defaults.update(kwargs)
    return RackConfig(**defaults)


class TestPlacement:
    def test_primary_and_replica_differ(self):
        for primary, replica in rack_aware_placement(8, 4):
            assert primary != replica

    def test_round_robin_coverage(self):
        placement = rack_aware_placement(4, 4)
        assert sorted(p for p, _ in placement) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ConfigError):
            rack_aware_placement(1, 1)
        with pytest.raises(ConfigError):
            rack_aware_placement(0, 4)


class TestRackAssembly:
    def test_all_vssds_registered_in_switch(self):
        rack = Rack(small_config())
        for pair in rack.pairs:
            assert pair.primary.vssd_id in rack.switch.replica_table
            assert pair.replica.vssd_id in rack.switch.replica_table
            assert (
                rack.switch.replica_table.replica_of(pair.primary.vssd_id)
                == pair.replica.vssd_id
            )

    def test_replicas_on_distinct_servers(self):
        rack = Rack(small_config())
        for pair in rack.pairs:
            assert pair.primary_server_ip != pair.replica_server_ip

    def test_vdc_family_has_controller(self):
        assert Rack(small_config(SystemType.VDC)).controller is not None
        assert Rack(small_config(SystemType.RACKBLOX_SOFTWARE)).controller is not None
        assert Rack(small_config(SystemType.RACKBLOX)).controller is None

    def test_coordinated_scheduler_by_system(self):
        assert Rack(small_config(SystemType.VDC)).servers[0].scheduler.name == "kyber"
        assert (
            Rack(small_config(SystemType.RACKBLOX)).servers[0].scheduler.name
            == "coordinated-kyber"
        )

    def test_precondition_consumes_free_blocks(self):
        rack = Rack(small_config())
        rack.precondition()
        for vssd in rack.vssd_by_id.values():
            assert vssd.free_block_ratio() < 0.5
            vssd.ftl.check_invariants()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RackConfig(num_servers=1)
        with pytest.raises(ConfigError):
            RackConfig(gc_threshold=0.5, soft_threshold=0.3)

    def test_default_network_scheduler_per_system(self):
        assert small_config(SystemType.VDC).effective_network_scheduler == "tb"
        assert small_config(SystemType.RACKBLOX).effective_network_scheduler == "priority"


class TestEndToEnd:
    def _run(self, system, write_ratio=0.5, requests=400, **kw):
        config = small_config(system, **kw)
        return run_rack_experiment(
            config, ycsb(write_ratio), requests_per_pair=requests,
            rate_iops_per_pair=1500,
        )

    def test_all_requests_complete(self):
        result = self._run(SystemType.RACKBLOX)
        s = result.metrics.summary()
        assert s["read_count"] + s["write_count"] == 3 * 400

    def test_forgotten_client_leaves_nothing_behind(self):
        rack = Rack(small_config(SystemType.VDC))  # tb egress: per-flow state
        done = rack.issue_read(rack.pairs[0], 3, client="gone")
        rack.sim.run(until=10_000.0)
        assert done.triggered and "gone" in rack._client_latency
        rack.forget_client("gone")
        rack.forget_client("never-seen")
        assert "gone" not in rack._client_latency
        assert all("gone" not in port.scheduler._queues
                   for port in rack._egress.values())
        # Forgotten with a reply still inside the rack: the reply gets
        # home (over the shared fabric's process) without re-creating it.
        late = rack.issue_read(rack.pairs[0], 4, client="gone-early")
        rack.forget_client("gone-early")
        rack.sim.run(until=20_000.0)
        assert late.triggered and "gone-early" not in rack._client_latency

    _BUDGET_SPEC = RunSpec.create(
        SystemType.RACKBLOX, ycsb(0.5), 1500, 1500.0, 42,
        num_servers=2, num_pairs=2,
    )

    def test_event_budget_per_request(self):
        # The 2 x 2 run of benchmarks/test_engine_throughput.py's rack gate,
        # counted instead of timed.  34,265 events for 3,000 requests with
        # no service or flush tick (41,697 with them, 58,464 with a start
        # tick per hop as well); either tick put back adds about one event
        # per request.  A change that is meant to move the model
        # re-records the number.
        result = self._BUDGET_SPEC.execute()
        s = result.metrics.summary()
        assert s["read_count"] + s["write_count"] == 3000
        assert result.events / 3000 <= 11.5

    def test_call_budget_per_request(self):
        # The same run, counting calls into this package's own functions
        # (stdlib and builtins left out, so a Python upgrade cannot move
        # it): 130.4 per request without the write-only flow telemetry
        # (one call per packet delivery), 132.0 with it and the hot path's
        # helpers folded in (the telemetry's sketch calls, an idle port's
        # enqueue + next, the predictor's key check, the tracer call when
        # tracing is off, the server's slot and reply helpers, the FTL's
        # range check, ``IoRequest.rank``), 150.6 before, with GC and
        # every other model component a callback machine (156.5 with the
        # GC monitor, coordinators and GC passes as processes; 157.3
        # through a per-wait binding that could be detached), 218.3 with
        # an Event + AllOf per request leg and both ticks.  An event per
        # leg put back costs several calls, a tick one more per request it
        # delays.
        import repro

        config = self._BUDGET_SPEC.build_config()
        rack = Rack(config)
        rack.precondition()  # outside the count: it is not per request
        package = os.path.dirname(repro.__file__) + os.sep
        calls = [0]

        def count(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[0] += 1

        sys.setprofile(count)
        try:
            result = run_rack_experiment(
                config, self._BUDGET_SPEC.workload, requests_per_pair=1500,
                rate_iops_per_pair=1500.0, rack=rack,
            )
        finally:
            sys.setprofile(None)
        assert result.events == 34265  # the run the count is for
        assert calls[0] / 3000 <= 131.0

    def test_rackblox_redirects_reads_during_gc(self):
        result = self._run(SystemType.RACKBLOX, write_ratio=0.6, requests=1500)
        assert result.gc_runs > 0
        assert result.switch_counters["reads_redirected"] > 0
        assert result.switch_counters["gc_accepted"] > 0

    def test_vdc_never_redirects(self):
        result = self._run(SystemType.VDC, write_ratio=0.6, requests=1500)
        assert result.gc_runs > 0
        assert result.redirects == 0
        assert result.switch_counters["gc_accepted"] == 0

    def test_rackblox_software_redirects_in_software(self):
        result = self._run(SystemType.RACKBLOX_SOFTWARE, write_ratio=0.6,
                           requests=1500)
        assert result.gc_runs > 0
        # Redirections happened at the servers, not in the switch.
        assert result.switch_counters["reads_redirected"] == 0
        assert result.redirects > 0

    def test_rackblox_beats_vdc_read_tail(self):
        vdc = self._run(SystemType.VDC, write_ratio=0.6, requests=1500)
        rb = self._run(SystemType.RACKBLOX, write_ratio=0.6, requests=1500)
        assert (
            rb.metrics.read_total.p99()
            < vdc.metrics.read_total.p99()
        )

    def test_read_only_runs_no_gc(self):
        result = self._run(SystemType.RACKBLOX, write_ratio=0.0, requests=400)
        assert result.gc_runs == 0
        assert result.metrics.write_total.count == 0

    def test_writes_fan_out_to_both_replicas(self):
        result = self._run(SystemType.RACKBLOX, write_ratio=1.0, requests=300)
        # Every client write shows up twice at the switch.
        assert result.switch_counters["writes_forwarded"] == 2 * 3 * 300

    def test_storage_breakdown_recorded(self):
        result = self._run(SystemType.RACKBLOX, requests=300)
        assert result.metrics.read_storage.count > 0
        assert result.metrics.write_storage.count > 0
        # Storage component can never exceed end-to-end.
        assert result.metrics.read_storage.mean() < result.metrics.read_total.mean()

    def test_deterministic_given_seed(self):
        a = self._run(SystemType.RACKBLOX, requests=300)
        b = self._run(SystemType.RACKBLOX, requests=300)
        assert a.metrics.read_total.p99() == b.metrics.read_total.p99()
        assert a.redirects == b.redirects

    def test_different_seeds_differ(self):
        a = self._run(SystemType.RACKBLOX, requests=300)
        b = self._run(SystemType.RACKBLOX, requests=300, seed=999)
        assert a.metrics.read_total.values != b.metrics.read_total.values

    def test_background_traffic_injector(self):
        config = small_config(SystemType.RACKBLOX, network_scheduler="priority")
        rack = Rack(config)
        rack.start_background_traffic(burst=8, period_us=10 * MSEC)
        run_rack_experiment(
            config, ycsb(0.2), requests_per_pair=200, rack=rack
        )
        assert rack.background_packets > 0


class _EventClient(Client):
    """The batch client driven through the ``issue_*`` event adapters."""

    def _issue_read(self, lpn):
        self.rack.issue_read(self.pair, lpn, client=self.name).add_callback(
            lambda done, t0=self.sim.now: self._read_done(t0, done.value))

    def _issue_write(self, lpn):
        self.rack.issue_write(self.pair, lpn, client=self.name).add_callback(
            lambda done, t0=self.sim.now: self._write_done(t0, done.value))


class TestRequestCores:
    """``start_read`` / ``start_write`` are the machine; ``issue_*`` only
    wrap them in an event."""

    def test_cores_and_event_adapters_walk_one_trajectory(self, monkeypatch):
        from tests.test_trajectory_pin import trajectory

        through_cores = trajectory("rackblox", requests_per_pair=400)
        monkeypatch.setattr(runner, "Client", _EventClient)
        assert trajectory("rackblox", requests_per_pair=400) == through_cores

    def test_a_write_with_no_live_replica_completes_with_nothing(self):
        rack = Rack(small_config())
        pair = rack.pairs[0]
        rack.failed_ips.update({pair.primary_server_ip, pair.replica_server_ip})
        replies = []
        rack.start_write(pair, 3, replies.append)
        # At once, sending nothing.
        assert replies == [[]] and not rack._pending
        assert rack.issue_write(pair, 3).value == []

    def test_writes_complete_in_leg_order_once_every_live_replica_acks(self):
        rack = Rack(small_config())
        pair = rack.pairs[0]
        replies = []
        rack.start_write(pair, 3, replies.append)
        rack.sim.run(until=10 * MSEC)
        [acks] = replies
        assert [ack.vssd_id for ack in acks] == [
            pair.primary.vssd_id, pair.replica.vssd_id]
        assert all(ack.is_response for ack in acks)
        # A replica declared dead is skipped: one leg, one ack.
        rack.failed_ips.add(pair.replica_server_ip)
        rack.start_write(pair, 4, replies.append)
        rack.sim.run(until=20 * MSEC)
        assert [ack.vssd_id for ack in replies[1]] == [pair.primary.vssd_id]

    def test_a_leg_dropped_at_a_dead_server_never_calls_then(self):
        rack = Rack(small_config())
        pair = rack.pairs[0]
        # Dead but not yet detected: the legs still go out.
        rack.server_by_ip[pair.primary_server_ip].alive = False
        calls = []
        rack.start_read(pair, 3, calls.append)
        rack.start_write(pair, 4, calls.append)
        rack.sim.run(until=50 * MSEC)
        # The read died at the NIC, and so did the write's primary leg:
        # its replica's ack waits in a join that never completes.
        assert calls == [] and not rack._pending


class TestGcDelayMechanism:
    def test_soft_gc_delays_when_replica_collecting(self):
        # Drive a write-heavy load so both replicas of a pair want GC at
        # similar times; the switch must have delayed at least one soft
        # request (the whole point of shared GC state).
        config = small_config(SystemType.RACKBLOX)
        result = run_rack_experiment(
            config, ycsb(0.8), requests_per_pair=2000, rate_iops_per_pair=2000
        )
        counters = result.switch_counters
        assert counters["gc_delayed"] > 0
        assert counters["recirculations"] >= counters["gc_delayed"]

    def test_monitors_checking_at_one_instant_keep_their_order(self, monkeypatch):
        # Two servers' monitors check at the same instants; which gc_op
        # reaches the switch first decides who is accepted and who is
        # delayed.  This is the order the monitors kept as processes.
        from repro.cluster import coordinators

        config = RackConfig(system=SystemType.RACKBLOX, num_servers=2,
                            num_pairs=2, seed=7, precondition_fill=0.7)
        rack = Rack(config)
        sent = []

        def logged_gc_op(vssd_id, kind, src):
            sent.append((rack.sim.now, src, rack.vssd_by_id[vssd_id].name, kind.name))
            return make_gc_op(vssd_id, kind, src=src)

        make_gc_op = coordinators.gc_op
        monkeypatch.setattr(coordinators, "gc_op", logged_gc_op)
        rack.precondition()
        rack.sim.run(until=300 * MSEC)
        a, b = "10.0.0.16", "10.0.0.17"
        assert sent == [
            (5000.0, a, "pair0-p", "SOFT"),
            (5000.0, b, "pair0-r", "SOFT"),  # delayed: its replica collects
            (5010.8, b, "pair1-p", "SOFT"),
            (100010.8, a, "pair0-p", "FINISH"),
            (100015.8, a, "pair1-r", "SOFT"),  # delayed: its replica collects
            (100021.6, b, "pair1-p", "FINISH"),
            (110026.6, b, "pair0-r", "SOFT"),
            (110026.6, a, "pair1-r", "SOFT"),
            (205037.40000000002, b, "pair0-r", "FINISH"),
            (205037.40000000002, a, "pair1-r", "FINISH"),
        ]
        assert {ip: c.packets_sent for ip, c in rack._gc_coordinators.items()} \
            == {a: 5, b: 5}
        assert rack.switch.gc_delayed == 2 and rack.sim.event_count == 206


class TestGcMonitorLiveness:
    @pytest.mark.parametrize("system, sw_isolated, seed", [
        (SystemType.VDC, False, 7),
        (SystemType.RACKBLOX, False, 7),
        (SystemType.RACKBLOX, True, 8),
    ])
    def test_every_monitor_keeps_deciding_and_is_rearmed_at_drain(
            self, system, sw_isolated, seed):
        # A monitor whose pass never ends (a coordinator notice that
        # forgets to answer) makes one GC decision and stops: its timer
        # is never re-armed.  Under a write-heavy load every monitor of a
        # VDC rack (LocalGcCoordinator), of a RackBlox rack (the switch)
        # and of a software-isolated RackBlox rack (channel groups, whose
        # members a delay verdict rolls back) must keep deciding, and
        # wait for its next pass when the clients drain.
        config = RackConfig(system=system, num_servers=2, num_pairs=2,
                            seed=seed, precondition_fill=0.7,
                            sw_isolated=sw_isolated)
        rack = Rack(config)
        # GC-bit audit: a vSSD whose switch GC bit is set is collecting
        # or still owes a finish notice.  A pass ends only once its GC
        # has run and its notices have landed, so at every pass's end
        # none of the monitor's vSSDs may hold a bit (a delay verdict
        # that forgot to roll back an accepted member would).
        tables = (rack.switch.replica_table, rack.switch.destination_table)
        leaked = []

        def audited(monitor, check, then):
            def audit():
                leaked.extend(
                    v.vssd_id for v in monitor.vssds
                    if any(table.gc_status(v.vssd_id) for table in tables))
                then()
            check(audit)

        for monitor in rack.gc_monitors:
            monitor.check_all_once = partial(audited, monitor,
                                             monitor.check_all_once)
        run_rack_experiment(config, ycsb(0.9), requests_per_pair=1500,
                            rate_iops_per_pair=2000, rack=rack)
        assert len(rack.gc_monitors) == 2
        for monitor in rack.gc_monitors:
            assert sum(monitor.requests_sent.values()) >= 2
            assert monitor.halted_by is None
            armed = [fn for _, _, fn in rack.sim._heap if fn == monitor._pass]
            assert len(armed) == 1
        assert leaked == []
        if sw_isolated:
            # Seed 8 has a delay verdict roll back an accepted member: a
            # finish notice with no group GC behind it.
            groups = {id(v.channel_group): v.channel_group
                      for v in rack.vssd_by_id.values()}.values()
            collected = sum(len(g.members) * g.group_gcs for g in groups)
            assert rack.switch.gc_finished > collected
        # At drain nothing but the monitors' timers is left to run, so no
        # notice is on its way: a set bit must be a vSSD collecting.
        assert all(fn in [m._pass for m in rack.gc_monitors]
                   for _, _, fn in rack.sim._heap)
        for vssd_id, vssd in rack.vssd_by_id.items():
            if any(table.gc_status(vssd_id) for table in tables):
                assert vssd.gc_active, f"vSSD {vssd_id} left its GC bit set"

    def test_rackblox_software_tells_the_controller_of_background_gc(self):
        # Requests 50 ms apart on average predict an idle gap past the
        # 30 ms threshold, so every monitor runs background GC, and each
        # notice is the controller's GC decision (the redirect grant).
        config = RackConfig(system=SystemType.RACKBLOX_SOFTWARE,
                            num_servers=2, num_pairs=2, seed=7)
        rack = Rack(config)
        run_rack_experiment(config, ycsb(0.5), requests_per_pair=40,
                            rate_iops_per_pair=20, rack=rack)
        sent = [monitor.requests_sent for monitor in rack.gc_monitors]
        assert all(counts["bg"] >= 2 and counts["soft"] == counts["regular"]
                   == 0 for counts in sent)
        # One decision per notice; a monitor's last may still be on its
        # way at drain.
        undecided = sum(c["bg"] for c in sent) - rack.controller.gc_requests
        assert 0 <= undecided <= len(sent)


def _skewed_sw_isolated_run(requests_per_heavy_pair):
    """A software-isolated RackBlox rack whose collocated tenants are
    skewed: the even pairs are all writes at 1,500 req/s, the odd pairs
    (their channel-group partners) idle.  Returns ``(rack, flash
    operations failed)``."""
    config = RackConfig(system=SystemType.RACKBLOX, seed=42, sw_isolated=True)
    rack = Rack(config)
    rack.precondition(working_set_fraction=0.5)
    metrics = ExperimentMetrics()
    clients = []
    for idx, pair in enumerate(rack.pairs[::2]):
        generator = OpenLoopGenerator(
            ycsb(1.0), key_space=rack.working_set_pages(pair, 0.5),
            rate_iops=1500.0, rng=rack.rng.stream(f"client-{2 * idx}"),
        )
        client = Client(rack, name=f"client-{2 * idx}", pair=pair,
                        generator=generator, metrics=metrics,
                        working_set_fraction=0.5)
        clients.append(rack.sim.spawn(client.run(requests_per_heavy_pair)))
    runner.run_until(rack.sim, AllOf(rack.sim, clients))
    return rack, sum(server.requests_failed for server in rack.servers)


class TestBlockLending:
    def test_a_write_only_tenant_borrows_from_its_idle_partner(self, monkeypatch):
        # §3.5.2: a channel-group member that runs dry borrows free blocks
        # from its collocated partner.  An even workload (Figure 21) never
        # lends; this skew does, and without the loans ~9x as many
        # write-cache flushes run the writer's vSSD out of pages.
        rack, failed = _skewed_sw_isolated_run(6000)
        groups = {id(v.channel_group): v.channel_group
                  for v in rack.vssd_by_id.values()}.values()
        assert sum(group.blocks_borrowed for group in groups) > 0
        for vssd in rack.vssd_by_id.values():
            vssd.ftl.check_invariants()
        monkeypatch.setattr(ChannelGroup, "rebalance_free_blocks",
                            lambda group: 0)
        _, failed_without = _skewed_sw_isolated_run(6000)
        assert failed_without >= 5 * failed


class TestFailureHandling:
    def test_heartbeat_detects_crash_and_redirects(self):
        config = small_config(SystemType.RACKBLOX)
        rack = Rack(config)
        manager = FailureManager(rack, heartbeat_interval_us=5 * MSEC)
        manager.start()
        victim = rack.pairs[0].primary_server_ip
        manager.fail_server(victim)
        rack.sim.run(until=rack.sim.now + 100 * MSEC)
        assert manager.failures_detected >= 1
        assert victim in rack.failed_ips
        # The dead server's vSSDs now have their GC bits set, so reads
        # redirect to the replica.
        dead_vssd = rack.pairs[0].primary
        pkt = Packet(op=OpType.READ, vssd_id=dead_vssd.vssd_id)
        action = rack.switch.process_packet(pkt)
        assert action.redirected
        assert action.dst_ip == rack.pairs[0].replica_server_ip

    def test_recovery_clears_redirection(self):
        config = small_config(SystemType.RACKBLOX)
        rack = Rack(config)
        manager = FailureManager(rack, heartbeat_interval_us=5 * MSEC)
        manager.start()
        victim = rack.pairs[0].primary_server_ip
        manager.fail_server(victim)
        rack.sim.run(until=rack.sim.now + 100 * MSEC)
        manager.recover_server(victim)
        assert victim not in rack.failed_ips
        pkt = Packet(op=OpType.READ, vssd_id=rack.pairs[0].primary.vssd_id)
        action = rack.switch.process_packet(pkt)
        assert not action.redirected

    def test_workload_survives_server_failure(self):
        config = small_config(SystemType.RACKBLOX)
        rack = Rack(config)
        manager = FailureManager(rack, heartbeat_interval_us=2 * MSEC)
        manager.start()
        victim = rack.pairs[0].primary_server_ip
        manager.fail_server(victim)
        rack.sim.run(until=rack.sim.now + 50 * MSEC)  # past detection
        result = run_rack_experiment(
            config, ycsb(0.3), requests_per_pair=300, rack=rack
        )
        s = result.metrics.summary()
        assert s["read_count"] + s["write_count"] == 3 * 300

    def test_switch_reboot_preserves_forwarding(self):
        config = small_config(SystemType.RACKBLOX)
        rack = Rack(config)
        manager = FailureManager(rack)
        old_switch = rack.switch
        manager.fail_and_recover_switch()
        assert rack.switch is not old_switch
        pkt = Packet(op=OpType.READ, vssd_id=rack.pairs[0].primary.vssd_id)
        action = rack.switch.process_packet(pkt)
        assert action.dst_ip == rack.pairs[0].primary_server_ip

    def test_validation(self):
        rack = Rack(small_config())
        with pytest.raises(ConfigError):
            FailureManager(rack, heartbeat_interval_us=0)
        manager = FailureManager(rack)
        with pytest.raises(ConfigError):
            manager.fail_server("10.9.9.9")

    def _probed(self):
        """A manager on a rack whose extra, always-healthy server logs
        the instant of every heartbeat that checks it."""
        rack = Rack(small_config(SystemType.RACKBLOX))
        beats = []

        class Probe:
            ip, vssds = "10.0.0.99", []

            @property
            def alive(self):
                beats.append(rack.sim.now)
                return True

        rack.servers.append(Probe())
        return rack, FailureManager(rack, heartbeat_interval_us=5 * MSEC), beats

    def test_stop_ends_heartbeat_loop(self):
        rack, manager, beats = self._probed()
        manager.start()
        rack.sim.run(until=20 * MSEC)
        assert beats == [5 * MSEC, 10 * MSEC, 15 * MSEC, 20 * MSEC]
        manager.stop()
        assert not manager._running
        # The loop wakes once more (at 25 ms), sees the flag and returns
        # without checking -- no perpetual heartbeat is left in the heap:
        # a start after that begins a fresh loop, in its own phase.
        rack.sim.run(until=32 * MSEC)
        assert len(beats) == 4
        manager.start()
        rack.sim.run(until=45 * MSEC)
        assert beats[4:] == [37 * MSEC, 42 * MSEC]

    def test_stop_is_idempotent_and_restartable(self):
        rack, manager, beats = self._probed()
        manager.start()
        manager.stop()
        manager.stop()  # second stop is a no-op
        rack.sim.run(until=20 * MSEC)
        assert beats == []
        # Restarting re-arms detection.
        manager.start()
        assert manager._running
        victim = rack.pairs[0].primary_server_ip
        manager.fail_server(victim)
        rack.sim.run(until=rack.sim.now + 100 * MSEC)
        assert manager.failures_detected >= 1
        manager.stop()
        checked = len(beats)
        rack.sim.run(until=rack.sim.now + 20 * MSEC)
        assert len(beats) == checked

    def test_double_start_does_not_stack_loops(self):
        rack, manager, beats = self._probed()
        manager.start()
        manager.start()  # must not start a second loop
        rack.sim.run(until=20 * MSEC)
        # One heartbeat per interval; a stacked loop would double them.
        assert beats == [5 * MSEC, 10 * MSEC, 15 * MSEC, 20 * MSEC]
        manager.stop()
        # One stop ends the single loop; a stacked loop would survive it.
        rack.sim.run(until=40 * MSEC)
        assert len(beats) == 4

    def test_restart_before_the_next_tick_keeps_one_loop(self):
        rack, manager, beats = self._probed()
        manager.start()
        rack.sim.run(until=12 * MSEC)
        manager.stop()
        manager.start()  # before the stopped loop woke: it just re-arms
        rack.sim.run(until=30 * MSEC)
        assert beats == [5 * MSEC, 10 * MSEC, 15 * MSEC, 20 * MSEC,
                         25 * MSEC, 30 * MSEC]
