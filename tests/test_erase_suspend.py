"""Tests for erase suspend/resume on flash channels."""

import pytest

from repro.flash import Channel, PSSD
from repro.sim import Event, Simulator


def make_channel(enabled=True, slice_us=500.0, penalty=50.0):
    sim = Simulator()
    channel = Channel(sim, 0, PSSD)
    channel.configure_suspend(enabled, slice_us=slice_us,
                              resume_penalty_us=penalty)
    return sim, channel


def erase_then_read(channel, erase_done=lambda: None, read_done=lambda: None):
    """An erase takes the bus, and a read queues behind it."""
    channel.start_erase(erase_done)
    channel.submit("read", PSSD.read_latency(4.0), read_done)


class TestEraseSuspend:
    def test_disabled_erase_is_atomic(self):
        sim, channel = make_channel(enabled=False)
        read_done = []
        erase_then_read(channel, read_done=lambda: read_done.append(sim.now))
        sim.run()
        # The read waited out the whole 5 ms erase.
        assert read_done[0] >= PSSD.erase_us

    def test_suspended_erase_lets_read_through(self):
        sim, channel = make_channel(enabled=True, slice_us=500.0)
        read_done = []
        erase_then_read(channel, read_done=lambda: read_done.append(sim.now))
        sim.run()
        # The read slipped in after one slice, not after the full erase.
        assert read_done[0] < 2 * 500.0 + PSSD.read_latency(4.0)
        assert channel.suspensions >= 1

    def test_suspension_stretches_the_erase(self):
        # With contention, the erase finishes later than its raw time.
        sim, channel = make_channel(enabled=True, slice_us=500.0, penalty=100.0)
        erase_done = []
        erase_then_read(channel, erase_done=lambda: erase_done.append(sim.now))
        sim.run()
        assert erase_done[0] > PSSD.erase_us

    def test_uncontended_suspendable_erase_pays_nothing(self):
        sim, channel = make_channel(enabled=True)
        done = Event(sim)
        channel.start_erase(done.succeed)
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(PSSD.erase_us)
        assert channel.suspensions == 0

    def test_erase_counted_once(self):
        sim, channel = make_channel(enabled=True)
        channel.start_erase(lambda: None)
        sim.run()
        assert channel.op_counts["erase"] == 1

    def test_configure_validation(self):
        sim, channel = make_channel()
        with pytest.raises(ValueError):
            channel.configure_suspend(True, slice_us=0.0)
        with pytest.raises(ValueError):
            channel.configure_suspend(True, resume_penalty_us=-1.0)


class TestRackIntegration:
    def test_config_flag_wires_channels(self):
        from repro.cluster import Rack, RackConfig, SystemType

        config = RackConfig(system=SystemType.VDC, num_servers=3, num_pairs=3,
                            seed=2, erase_suspend=True)
        rack = Rack(config)
        for vssd in rack.vssd_by_id.values():
            assert all(c.suspend_enabled for c in vssd.ssd.channels)

    def test_default_off(self):
        from repro.cluster import Rack, RackConfig, SystemType

        rack = Rack(RackConfig(system=SystemType.VDC, num_servers=3,
                               num_pairs=3, seed=2))
        for vssd in rack.vssd_by_id.values():
            assert not any(c.suspend_enabled for c in vssd.ssd.channels)
