"""Flash SSD substrate.

Models the programmable SSDs of the paper's testbed: a hierarchy of
channels -> chips -> blocks -> pages with realistic operation timing,
out-of-place writes through a page-mapped FTL, greedy threshold garbage
collection, and per-block erase-count (wear) accounting.

This is the Python SSD emulator the paper itself uses for its device
sensitivity study (§4.5.3), extended to drive *all* experiments.
"""

from repro.flash.block import Block, PageState
from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.ftl import PageMappedFtl
from repro.flash.gc import GcResult, GreedyGcPolicy
from repro.flash.geometry import FlashGeometry
from repro.flash.ssd import Ssd
from repro.flash.timing import (
    DEVICE_PROFILES,
    INTEL_DC,
    OPTANE,
    PSSD,
    DeviceProfile,
)
from repro.flash.wear import WearTracker

__all__ = [
    "FlashGeometry",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "OPTANE",
    "INTEL_DC",
    "PSSD",
    "PageState",
    "Block",
    "FlashChip",
    "Channel",
    "PageMappedFtl",
    "GreedyGcPolicy",
    "GcResult",
    "WearTracker",
    "Ssd",
]
