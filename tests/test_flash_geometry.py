"""Tests for flash geometry and device timing profiles."""

import pytest

from repro.errors import ConfigError
from repro.flash import DEVICE_PROFILES, INTEL_DC, OPTANE, PSSD, FlashGeometry
from repro.flash.timing import DeviceProfile, profile_by_name


class TestGeometry:
    def test_defaults_are_consistent(self):
        geo = FlashGeometry()
        assert geo.total_chips == geo.channels * geo.chips_per_channel
        assert geo.total_pages == geo.total_chips * geo.pages_per_chip
        assert geo.capacity_kb == geo.total_pages * geo.page_size_kb

    def test_capacity_gb(self):
        geo = FlashGeometry(
            channels=2, chips_per_channel=2, blocks_per_chip=64,
            pages_per_block=64, page_size_kb=4,
        )
        # 4 chips * 64 blocks * 64 pages * 4KB = 64 MB
        assert geo.capacity_kb == 64 * 1024

    def test_chip_flattening_roundtrip(self):
        geo = FlashGeometry(channels=4, chips_per_channel=3)
        for channel in range(4):
            for chip in range(3):
                flat = geo.chip_of(channel, chip)
                assert geo.channel_of_chip(flat) == channel

    def test_chip_of_bounds(self):
        geo = FlashGeometry(channels=2, chips_per_channel=2)
        with pytest.raises(ConfigError):
            geo.chip_of(2, 0)
        with pytest.raises(ConfigError):
            geo.chip_of(0, 2)
        with pytest.raises(ConfigError):
            geo.channel_of_chip(99)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ConfigError):
            FlashGeometry(channels=0)
        with pytest.raises(ConfigError):
            FlashGeometry(pages_per_block=-1)


class TestDeviceProfiles:
    def test_three_builtin_profiles(self):
        assert set(DEVICE_PROFILES) == {"optane", "intel-dc", "pssd"}

    def test_speed_ordering_matches_paper(self):
        # Optane fastest, P-SSD slowest (Figure 19's premise).
        assert OPTANE.read_us < INTEL_DC.read_us < PSSD.read_us
        assert OPTANE.program_us < INTEL_DC.program_us < PSSD.program_us
        assert OPTANE.erase_us < INTEL_DC.erase_us < PSSD.erase_us

    def test_latency_includes_transfer(self):
        assert PSSD.read_latency(4.0) > PSSD.read_us
        assert PSSD.program_latency(4.0) > PSSD.program_us

    def test_lookup_by_name(self):
        assert profile_by_name("optane") is OPTANE
        with pytest.raises(ConfigError):
            profile_by_name("nvme-gen9")

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            DeviceProfile(name="bad", read_us=-1.0, program_us=1.0, erase_us=1.0)
