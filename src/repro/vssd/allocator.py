"""Carving vSSDs out of physical SSDs.

The allocator owns the channel/chip inventory of one SSD and hands out
non-overlapping slices: whole channels for hardware-isolated vSSDs, chips
for software-isolated ones.  A vSSD lives as long as its rack: no run
deletes one, so nothing is handed back.
"""

import itertools
from typing import Optional, Sequence

from repro.errors import VSSDError
from repro.flash.gc import GreedyGcPolicy
from repro.flash.ssd import Ssd
from repro.vssd.token_bucket import TokenBucket
from repro.vssd.vssd import IsolationType, VSsd

#: Process-wide vSSD id sequence; ids must be unique across the whole rack
#: because the ToR switch tables are keyed by them.
_vssd_ids = itertools.count(1)


def next_vssd_id() -> int:
    return next(_vssd_ids)


class VssdAllocator:
    """Tracks channel/chip ownership for one physical SSD."""

    def __init__(self, ssd: Ssd) -> None:
        self.ssd = ssd
        self._free_channels = set(range(ssd.geometry.channels))
        #: Chips available for software-isolated carving, by chip id.
        self._free_chips = {chip.chip_id for chip in ssd.chips}

    def create_hardware_isolated(
        self,
        name: str,
        channels: Sequence[int],
        overprovision: float = 0.25,
        gc_policy: Optional[GreedyGcPolicy] = None,
    ) -> VSsd:
        """Allocate a vSSD owning the given channels outright."""
        channels = list(channels)
        if not channels:
            raise VSSDError("hardware-isolated vSSD needs at least one channel")
        for channel_id in channels:
            if channel_id not in self._free_channels:
                raise VSSDError(
                    f"channel {channel_id} is not available on {self.ssd.ssd_id}"
                )
        chips = []
        for channel_id in channels:
            for chip in self.ssd.chips_of_channel(channel_id):
                if chip.chip_id not in self._free_chips:
                    raise VSSDError(
                        f"chip {chip.chip_id} on channel {channel_id} is already "
                        "carved out by a software-isolated vSSD"
                    )
                chips.append(chip)
        for channel_id in channels:
            self._free_channels.discard(channel_id)
        for chip in chips:
            self._free_chips.discard(chip.chip_id)
        return VSsd(
            next_vssd_id(),
            name,
            self.ssd,
            chips,
            IsolationType.HARDWARE,
            overprovision=overprovision,
            gc_policy=gc_policy,
        )

    def create_software_isolated(
        self,
        name: str,
        chips: Sequence[int],
        overprovision: float = 0.25,
        gc_policy: Optional[GreedyGcPolicy] = None,
        rate_limiter: Optional[TokenBucket] = None,
    ) -> VSsd:
        """Allocate a vSSD owning chips, sharing their channels."""
        chip_ids = list(chips)
        if not chip_ids:
            raise VSSDError("software-isolated vSSD needs at least one chip")
        for chip_id in chip_ids:
            if chip_id not in self._free_chips:
                raise VSSDError(f"chip {chip_id} is not available on {self.ssd.ssd_id}")
            channel_id = self.ssd.geometry.channel_of_chip(chip_id)
            if channel_id not in self._free_channels:
                # Channel fully owned by a hardware-isolated vSSD.
                raise VSSDError(
                    f"chip {chip_id} sits on channel {channel_id}, which is "
                    "exclusively owned"
                )
        for chip_id in chip_ids:
            self._free_chips.discard(chip_id)
        return VSsd(
            next_vssd_id(),
            name,
            self.ssd,
            [self.ssd.chips[chip_id] for chip_id in chip_ids],
            IsolationType.SOFTWARE,
            overprovision=overprovision,
            gc_policy=gc_policy,
            rate_limiter=rate_limiter,
        )
