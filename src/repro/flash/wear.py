"""Wear accounting.

The wear of an SSD is "the average erase count of all the blocks to date"
(§3.6, footnote 2).  :class:`WearTracker` aggregates block erase counts at
chip, SSD, server, and rack granularity and computes the imbalance metric
λ = φ_max / φ_avg that the paper's two-level wear leveling keeps below 1+γ.
"""

from typing import Sequence

from repro.flash.chip import FlashChip


class WearTracker:
    """Read-only wear statistics over a set of chips."""

    def __init__(self, chips: Sequence[FlashChip]) -> None:
        if not chips:
            raise ValueError("WearTracker needs at least one chip")
        self.chips = list(chips)

    def average_erase_count(self) -> float:
        """φ for this device: mean erase count over all blocks."""
        total = 0
        blocks = 0
        for chip in self.chips:
            for block in chip.blocks:
                total += block.erase_count
                blocks += 1
        return total / blocks if blocks else 0.0


def wear_imbalance(wears: Sequence[float]) -> float:
    """λ = φ_max / φ_avg across a set of devices.

    Returns 1.0 when all wears are zero (a fresh fleet is balanced).
    """
    if not wears:
        raise ValueError("need at least one wear value")
    avg = sum(wears) / len(wears)
    if avg == 0.0:
        return 1.0
    return max(wears) / avg


def wear_variance(wears: Sequence[float]) -> float:
    """Population variance of device wear (Figure 23's balance metric)."""
    if not wears:
        raise ValueError("need at least one wear value")
    avg = sum(wears) / len(wears)
    return sum((w - avg) ** 2 for w in wears) / len(wears)
