"""Tests for software-isolated racks and the network-contention knobs."""

import pytest

from repro.cluster import Rack, RackConfig, SystemType
from repro.errors import ConfigError
from repro.experiments.runner import run_rack_experiment
from repro.flash.geometry import FlashGeometry
from repro.vssd.vssd import IsolationType
from repro.workloads import ycsb


def sw_config(**kwargs):
    defaults = dict(
        system=SystemType.RACKBLOX, num_servers=3, num_pairs=4,
        sw_isolated=True, seed=99,
    )
    defaults.update(kwargs)
    return RackConfig(**defaults)


class TestSwIsolatedRack:
    def test_pairs_must_be_even(self):
        with pytest.raises(ConfigError):
            RackConfig(sw_isolated=True, num_pairs=3)

    def test_needs_splittable_chips(self):
        config = sw_config(
            vssd_geometry=FlashGeometry(channels=2, chips_per_channel=1,
                                        blocks_per_chip=16, pages_per_block=8)
        )
        with pytest.raises(ConfigError):
            Rack(config)

    def test_vssds_are_software_isolated(self):
        rack = Rack(sw_config())
        for vssd in rack.vssd_by_id.values():
            assert vssd.isolation is IsolationType.SOFTWARE
            assert vssd.rate_limiter is not None

    def test_collocated_tenants_share_channels(self):
        rack = Rack(sw_config())
        # Pairs 0 and 1 are a collocated couple: their primaries sit on
        # the same SSD, splitting its chips.
        a = rack.pairs[0].primary
        b = rack.pairs[1].primary
        assert a.ssd is b.ssd
        a_chips = {c.chip_id for c in a.ftl.chips}
        b_chips = {c.chip_id for c in b.ftl.chips}
        assert not (a_chips & b_chips)
        assert len(a_chips) + len(b_chips) == len(a.ssd.chips)

    def test_channel_groups_formed(self):
        rack = Rack(sw_config())
        a = rack.pairs[0].primary
        b = rack.pairs[1].primary
        assert a.channel_group is not None
        assert a.channel_group is b.channel_group

    def test_replicas_grouped_on_other_server(self):
        rack = Rack(sw_config())
        ra = rack.pairs[0].replica
        rb = rack.pairs[1].replica
        assert ra.channel_group is rb.channel_group
        assert ra.channel_group is not rack.pairs[0].primary.channel_group

    def test_sw_isolated_workload_completes(self):
        config = sw_config()
        result = run_rack_experiment(config, ycsb(0.5), requests_per_pair=300)
        s = result.metrics.summary()
        assert s["read_count"] + s["write_count"] == 4 * 300


class TestNetworkKnobs:
    def test_constrained_egress_increases_latency(self):
        base = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                          num_pairs=3, seed=5)
        slow = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                          num_pairs=3, seed=5, egress_rate_kb_per_us=0.02)
        fast_result = run_rack_experiment(base, ycsb(0.2), requests_per_pair=400)
        slow_result = run_rack_experiment(slow, ycsb(0.2), requests_per_pair=400)
        assert (
            slow_result.metrics.read_total.mean()
            > fast_result.metrics.read_total.mean()
        )

    def test_background_traffic_flag_starts_injector(self):
        config = RackConfig(system=SystemType.RACKBLOX, num_servers=3,
                            num_pairs=3, seed=5, background_traffic=True,
                            network_scheduler="priority")
        rack = Rack(config)
        rack.sim.run(until=200_000.0)
        assert rack.background_packets > 0

    def test_tb_flow_rate_knob_applies(self):
        config = RackConfig(system=SystemType.VDC, num_servers=3, num_pairs=3,
                            seed=5, tb_flow_rate_kb_per_sec=123.0)
        rack = Rack(config)
        port = next(iter(rack._egress.values()))
        assert port.scheduler.flow_rate == 123.0
