"""A flash chip: a set of erase blocks behind one channel.

The chip is pure state -- block bookkeeping and free-block accounting.
Timing lives in :mod:`repro.flash.channel`, which serialises operations on
the shared bus, matching the paper's observation that "an SSD channel
cannot issue new I/O requests during GC".
"""

from array import array
from typing import AbstractSet, List, Optional

from repro.errors import FlashError, OutOfSpaceError
from repro.flash.block import Block


class FlashChip:
    """Block bookkeeping for one chip."""

    def __init__(self, chip_id: int, blocks_per_chip: int, pages_per_block: int) -> None:
        self.chip_id = chip_id
        self.blocks: List[Block] = [
            Block(block_id, pages_per_block) for block_id in range(blocks_per_chip)
        ]
        #: The reverse map, one word per page (``block_id * pages_per_block
        #: + page``): the logical page a VALID page holds, else -1.  It
        #: lives with the chip, not the FTL, so whoever collects a block --
        #: its owner, or the vSSD that borrowed it -- finds its pages here.
        self.rmap = array("q", [-1]) * (blocks_per_chip * pages_per_block)
        #: Blocks that are fully erased and hold no data, newest last.
        self._free_blocks: List[int] = list(range(blocks_per_chip))
        #: Each block's stale-page count, by block id: a mirror of
        #: ``Block.invalid_count`` kept by :meth:`invalidate` and
        #: :meth:`erase_block` (the only ways the model changes a count),
        #: so :meth:`most_stale` finds the greedy victim without a scan.
        self._stale_counts: List[int] = [0] * blocks_per_chip

    @property
    def blocks_per_chip(self) -> int:
        return len(self.blocks)

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def allocate_block(self) -> Block:
        """Take a free block to use as a new active (write) block."""
        if not self._free_blocks:
            raise OutOfSpaceError(f"chip {self.chip_id} has no free blocks")
        return self.blocks[self._free_blocks.pop(0)]

    def release_block(self, block: Block) -> None:
        """Return an erased block to the free pool."""
        if not block.is_empty:
            raise FlashError(
                f"block {block.block_id} is not erased; cannot release to free pool"
            )
        if block.block_id in self._free_blocks:
            raise FlashError(f"block {block.block_id} is already in the free pool")
        self._free_blocks.append(block.block_id)

    def invalidate(self, block_id: int, page: int) -> None:
        """Mark a page of one of this chip's blocks stale."""
        block = self.blocks[block_id]
        block.invalidate(page)
        self._stale_counts[block_id] = block.invalid_count

    def erase_block(self, block: Block) -> None:
        """Erase one of this chip's blocks (see :meth:`Block.erase`)."""
        block.erase()
        self._stale_counts[block.block_id] = 0

    def most_stale(self, active: Optional[Block],
                   exempt: AbstractSet[Block]) -> Optional[Block]:
        """Greedy victim among this chip's blocks other than ``active`` and
        those in ``exempt``: the most stale pages, the lowest block id
        among equals (the first maximum in block order).  ``None`` when
        none is stale."""
        counts = self._stale_counts
        top = max(counts)
        if not top:
            return None
        block = self.blocks[counts.index(top)]
        if block is not active and block not in exempt:
            return block
        # The first maximum is exempt: take the first maximum of the rest.
        best = None
        for block in self.blocks:
            if (block.invalid_count and block is not active
                    and block not in exempt
                    and (best is None or block.invalid_count > best.invalid_count)):
                best = block
        return best

    @property
    def average_erase_count(self) -> float:
        return sum(b.erase_count for b in self.blocks) / len(self.blocks)
