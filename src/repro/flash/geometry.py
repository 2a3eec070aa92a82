"""Flash geometry: the static shape of an SSD.

The paper's SSDs (Figure 2) are organised as channels shared by packages of
chips; each chip holds blocks of pages.  We fold packages into the chip
count (a package is a wiring detail, not a behavioural one) and keep the
four levels that matter for performance: channel, chip, block, page.
"""

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of an SSD's physical layout.

    The defaults describe the scaled-down device used throughout the
    experiments; scaling capacity down (while keeping ratios) preserves GC
    and wear dynamics, which depend on free-space *fractions* and
    erase-count *ratios*, not absolute bytes.
    """

    channels: int = 8
    chips_per_channel: int = 4
    blocks_per_chip: int = 256
    pages_per_block: int = 64
    page_size_kb: int = 4

    def __post_init__(self) -> None:
        for field_name in (
            "channels",
            "chips_per_channel",
            "blocks_per_chip",
            "pages_per_block",
            "page_size_kb",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{field_name} must be a positive int, got {value!r}")

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def total_blocks(self) -> int:
        return self.total_chips * self.blocks_per_chip

    @property
    def pages_per_chip(self) -> int:
        return self.blocks_per_chip * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.total_chips * self.pages_per_chip

    @property
    def capacity_kb(self) -> int:
        return self.total_pages * self.page_size_kb

    def chip_of(self, channel: int, chip_in_channel: int) -> int:
        """Flatten (channel, chip-in-channel) to a global chip index."""
        if not 0 <= channel < self.channels:
            raise ConfigError(f"channel {channel} out of range [0,{self.channels})")
        if not 0 <= chip_in_channel < self.chips_per_channel:
            raise ConfigError(
                f"chip {chip_in_channel} out of range [0,{self.chips_per_channel})"
            )
        return channel * self.chips_per_channel + chip_in_channel

    def channel_of_chip(self, chip: int) -> int:
        """Which channel serves a given global chip index."""
        if not 0 <= chip < self.total_chips:
            raise ConfigError(f"chip {chip} out of range [0,{self.total_chips})")
        return chip // self.chips_per_channel
