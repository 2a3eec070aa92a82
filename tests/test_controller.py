"""Tests for the VDC controller and the GC coordinators."""

import pytest

from repro.cluster.controller import VdcController
from repro.cluster.coordinators import SwitchGcCoordinator
from repro.errors import ConfigError
from repro.flash import FlashGeometry, Ssd
from repro.server.gc_monitor import GcMonitor
from repro.sim import Event, Simulator
from repro.sim.core import MSEC
from repro.switch import SwitchControlPlane, SwitchDataPlane
from repro.vssd import VssdAllocator


class TestVdcController:
    def test_plain_vdc_always_accepts_gc(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=False)
        verdict, redirect = controller.decide_gc(1, "soft")
        assert verdict == "accept" and redirect is None

    def test_gc_aware_returns_redirect_target(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=True)
        controller.register_pair(1, 2, "10.0.0.20")
        verdict, redirect = controller.decide_gc(1, "soft")
        assert verdict == "accept"
        assert redirect == "10.0.0.20"
        assert controller._gc_state[1]

    def test_gc_aware_delays_when_replica_collecting(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=True)
        controller.register_pair(1, 2, "10.0.0.20")
        controller.register_pair(2, 1, "10.0.0.16")
        controller.decide_gc(2, "soft")  # replica starts collecting
        verdict, redirect = controller.decide_gc(1, "soft")
        assert verdict == "delay" and redirect is None
        assert controller.gc_delays == 1

    def test_regular_gc_never_delayed(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=True)
        controller.register_pair(1, 2, "b")
        controller.register_pair(2, 1, "a")
        controller.decide_gc(2, "regular")
        verdict, _ = controller.decide_gc(1, "regular")
        assert verdict == "accept"

    def test_finish_clears_state(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=True)
        controller.register_pair(1, 2, "b")
        controller.decide_gc(1, "soft")
        controller.finish_gc(1)
        assert not controller._gc_state[1]

    def test_unregistered_vssd_rejected_when_aware(self):
        sim = Simulator()
        controller = VdcController(sim, gc_aware=True)
        with pytest.raises(ConfigError):
            controller.decide_gc(99, "soft")

    def test_round_trip_takes_time(self):
        sim = Simulator()
        controller = VdcController(sim)
        done = Event(sim)
        controller.round_trip(done.succeed)
        sim.run()
        assert done.triggered
        assert sim.now == 2 * controller.ONE_WAY_US + controller.PROCESSING_US
        # Nothing else lives on the controller's heap: no perpetual loop.
        assert not sim._heap

    def test_custom_latency_fn(self):
        sim = Simulator()
        controller = VdcController(sim, latency_fn=lambda: 500.0)
        done = Event(sim)
        controller.round_trip(done.succeed)
        sim.run(until=900.0)
        assert not done.triggered  # 2x500us + processing > 900us
        sim.run(until=2 * MSEC)
        assert done.triggered


def make_switch_world():
    sim = Simulator()
    plane = SwitchDataPlane()
    cp = SwitchControlPlane(plane)
    geo = FlashGeometry(channels=2, chips_per_channel=2, blocks_per_chip=32,
                        pages_per_block=8)
    vssds = []
    for i, ip in enumerate(("10.0.0.16", "10.0.0.20")):
        ssd = Ssd(sim, f"ssd-{i}", geometry=geo)
        vssd = VssdAllocator(ssd).create_hardware_isolated("v", channels=[0, 1])
        vssds.append((vssd, ip))
    (v1, ip1), (v2, ip2) = vssds
    cp.register_vssd(v1.vssd_id, ip1, v2.vssd_id, ip2)
    cp.register_vssd(v2.vssd_id, ip2, v1.vssd_id, ip1)
    return sim, plane, v1, v2, ip1, ip2


class TestSwitchGcCoordinator:
    def test_request_round_trip(self):
        sim, plane, v1, v2, ip1, _ = make_switch_world()
        coordinator = SwitchGcCoordinator(sim, plane, ip1)
        verdict = Event(sim)
        coordinator.request_gc(v1, "soft", verdict.succeed)
        sim.run()
        assert verdict.value == "accept"
        assert plane.replica_table.gc_status(v1.vssd_id) == 1
        assert sim.now > 0  # wire hops took time

    def test_finish_notification(self):
        sim, plane, v1, v2, ip1, _ = make_switch_world()
        coordinator = SwitchGcCoordinator(sim, plane, ip1)
        coordinator.request_gc(v1, "regular", lambda _verdict: None)
        sim.run()
        finished = Event(sim)
        coordinator.notify_finish(v1, finished.succeed)
        sim.run()
        assert finished.triggered
        assert plane.replica_table.gc_status(v1.vssd_id) == 0

    def test_background_notification_sets_bit(self):
        sim, plane, v1, v2, ip1, _ = make_switch_world()
        coordinator = SwitchGcCoordinator(sim, plane, ip1)
        coordinator.notify_background(v1, lambda: None)
        sim.run()
        assert plane.destination_table.gc_status(v1.vssd_id) == 1

    def test_dropped_packets_reported_as_lost(self):
        import random

        sim, plane, v1, v2, ip1, _ = make_switch_world()
        coordinator = SwitchGcCoordinator(
            sim, plane, ip1, drop_rng=random.Random(1), drop_probability=1.0
        )
        verdict = Event(sim)
        coordinator.request_gc(v1, "regular", verdict.succeed)
        sim.run()
        assert verdict.value == "lost"
        assert coordinator.packets_dropped == 1

    def test_monitor_forces_regular_gc_after_retries(self):
        """§3.5.1: regular GC executes after 3 unacknowledged retries."""
        import random

        sim, plane, v1, v2, ip1, _ = make_switch_world()
        # Make the vSSD genuinely below the hard threshold.
        working_set = max(1, v1.logical_pages // 4)
        lpn = 0
        while v1.free_block_ratio() >= v1.gc_policy.gc_threshold:
            v1.ftl.place_write(lpn % working_set)
            lpn += 1
        coordinator = SwitchGcCoordinator(
            sim, plane, ip1, drop_rng=random.Random(1), drop_probability=1.0
        )
        monitor = GcMonitor(sim, [v1], coordinator, check_interval_us=5 * MSEC)
        checked = Event(sim)
        monitor.check_all_once(checked.succeed)
        sim.run(until=sim.now + 500 * MSEC)
        assert checked.triggered
        assert coordinator.packets_dropped >= 3
        assert monitor.forced_after_retries == 1
        assert v1.gc_runs == 1  # GC ran anyway
