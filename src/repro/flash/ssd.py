"""Whole-SSD assembly: channels, chips, and wear tracking.

An :class:`Ssd` is the physical device a storage server plugs in.  vSSD
instances (see :mod:`repro.vssd`) are carved out of its channels or chips;
the SSD itself only owns the hardware resources and the wear statistics
used by the rack-scale wear-leveling machinery.
"""

from typing import List

from repro.errors import ConfigError
from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import DeviceProfile, PSSD
from repro.flash.wear import WearTracker
from repro.sim import Simulator


class Ssd:
    """One physical SSD: ``geometry.channels`` channels of chips."""

    def __init__(
        self,
        sim: Simulator,
        ssd_id: str,
        geometry: FlashGeometry = FlashGeometry(),
        profile: DeviceProfile = PSSD,
    ) -> None:
        self.sim = sim
        self.ssd_id = ssd_id
        self.geometry = geometry
        self.profile = profile
        self.channels: List[Channel] = [
            Channel(sim, channel_id, profile) for channel_id in range(geometry.channels)
        ]
        self.chips: List[FlashChip] = [
            FlashChip(chip_id, geometry.blocks_per_chip, geometry.pages_per_block)
            for chip_id in range(geometry.total_chips)
        ]
        #: The channel serving each chip, indexed by chip id: resolved
        #: once, since the media path asks on every page operation.
        self.channel_by_chip: List[Channel] = [
            self.channels[geometry.channel_of_chip(chip.chip_id)]
            for chip in self.chips
        ]
        self.wear = WearTracker(self.chips)
        #: Cumulative logical data written to this device (pages), updated
        #: by the vSSD layer; feeds the wear-*rate* estimate used when the
        #: local balancer picks its swap partner.
        self.pages_written = 0

    def channel_of_chip(self, chip: FlashChip) -> Channel:
        """The channel that serves a given chip."""
        return self.channel_by_chip[chip.chip_id]

    def chips_of_channel(self, channel_id: int) -> List[FlashChip]:
        """All chips behind one channel."""
        if not 0 <= channel_id < self.geometry.channels:
            raise ConfigError(
                f"channel {channel_id} out of range [0,{self.geometry.channels})"
            )
        per = self.geometry.chips_per_channel
        return self.chips[channel_id * per : (channel_id + 1) * per]

    @property
    def average_erase_count(self) -> float:
        """φ for this SSD (the wear-leveling currency)."""
        return self.wear.average_erase_count()
