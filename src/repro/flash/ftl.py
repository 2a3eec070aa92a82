"""Page-mapped flash translation layer.

Each vSSD runs its own FTL over the chips it owns (§3.3: "each vSSD has its
own address mapping table ... and local wear leveling").  The FTL performs
out-of-place writes, invalidating the previous physical page, and exposes
the free-block accounting that drives the paper's soft/hard GC thresholds.

The FTL is *pure state*: it decides placement and updates mappings, while
the timed channel operations are issued by the owning vSSD.  This split
keeps the state machine testable without a simulator.

Its tables cost bytes per page, as a device's do: the forward map is one
word per logical page holding a packed physical page number (a *ppn*),
the reverse map is one word per physical page kept by the chip
(:attr:`FlashChip.rmap`), and page states are a byte each in their block.
A :class:`PhysicalAddr` is built only where the API hands one out.
"""

from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import AddressError, FlashError, OutOfSpaceError
from repro.flash.block import Block, PageState
from repro.flash.chip import FlashChip

# A ppn is ``slot << _SLOT_SHIFT | block_id * pages_per_block + page``:
# ``slot`` indexes the FTL's chips, the low bits index the chip's rmap.
_SLOT_SHIFT = 32
_PAGE_MASK = (1 << _SLOT_SHIFT) - 1


class PhysicalAddr(NamedTuple):
    """A physical flash location: chip object + block + page."""

    chip: FlashChip
    block_id: int
    page: int

    def key(self) -> Tuple[int, int, int]:
        return (self.chip.chip_id, self.block_id, self.page)


@dataclass
class BorrowedBlock:
    """A free block loaned by a collocated vSSD (channel-group borrowing)."""

    chip: FlashChip
    block: Block
    lender: "PageMappedFtl"
    #: The borrower's ppn of the block's first page.
    base: int


class PageMappedFtl:
    """Out-of-place, page-granularity FTL over a set of owned chips."""

    def __init__(
        self,
        name: str,
        chips: List[FlashChip],
        pages_per_block: int,
        overprovision: float = 0.25,
    ) -> None:
        if not chips:
            raise FlashError("FTL needs at least one chip")
        if not 0.0 < overprovision < 1.0:
            raise FlashError(f"overprovision must be in (0,1), got {overprovision}")
        self.name = name
        self.chips = list(chips)
        self.pages_per_block = pages_per_block
        self.overprovision = overprovision

        total_pages = sum(c.blocks_per_chip for c in chips) * pages_per_block
        #: Host-visible capacity in pages.
        self.logical_pages = int(total_pages * (1.0 - overprovision))
        self.total_physical_pages = total_pages
        self.total_blocks = sum(c.blocks_per_chip for c in chips)

        #: lpn -> ppn, -1 for a logical page never written (or trimmed).
        self._map = array("q", [-1]) * self.logical_pages
        self._mapped = 0
        #: The chips a ppn's slot names: the owned chips, then every chip
        #: a block was borrowed from.
        self._slots: List[FlashChip] = list(chips)
        #: Per owned chip (by slot), the active write block; allocated lazily.
        self._active: List[Optional[Block]] = [None] * len(chips)
        self._next_chip = 0

        #: Borrowed blocks not yet full, the one being written first.
        self._borrowed_free: List[BorrowedBlock] = []
        #: Every block borrowed from a collocated vSSD and not yet returned
        #: (GC erases it and hands it back).
        self._borrowed: Dict[Block, BorrowedBlock] = {}
        #: Owned blocks lent out: the borrower writes and collects them.
        self._lent: Set[Block] = set()

        # Statistics for write-amplification reporting.
        self.host_writes = 0
        self.gc_writes = 0
        self.gc_erases = 0

    # ------------------------------------------------------------------ reads

    def lookup(self, lpn: int) -> Optional[PhysicalAddr]:
        """Physical location of a logical page, or ``None`` if unwritten."""
        ppn = self.lookup_ppn(lpn)
        return None if ppn < 0 else self._addr(ppn)

    def lookup_ppn(self, lpn: int) -> int:
        """:meth:`lookup` as a packed ppn (see :meth:`chip_of`), -1 if
        unwritten."""
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)  # raises
        return self._map[lpn]

    def chip_of(self, ppn: int) -> FlashChip:
        """The chip a ppn this FTL handed out lies on."""
        return self._slots[ppn >> _SLOT_SHIFT]

    def mapped_lpns(self) -> List[int]:
        """Every mapped logical page, in increasing order."""
        return [lpn for lpn, ppn in enumerate(self._map) if ppn >= 0]

    # ----------------------------------------------------------------- writes

    def place_write(self, lpn: int) -> PhysicalAddr:
        """Choose a physical page for ``lpn``; updates mapping state.

        The previous location (if any) is invalidated -- the out-of-place
        write discipline that makes GC necessary in the first place.
        """
        return self._addr(self.place_ppn(lpn))

    def place_ppn(self, lpn: int) -> int:
        """:meth:`place_write` returning the packed ppn."""
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)  # raises
        ppn = self._remap(lpn)
        self.host_writes += 1
        return ppn

    def trim(self, lpn: int) -> None:
        """Discard a logical page (invalidate without rewriting)."""
        self._check_lpn(lpn)
        old = self._map[lpn]
        if old >= 0:
            self._map[lpn] = -1
            self._mapped -= 1
            self._invalidate(old)

    def _remap(self, lpn: int) -> int:
        """The placement core of host writes and GC migrations: program a
        page for ``lpn``, map it there and invalidate the page it
        replaces.  Returns the new ppn."""
        ppn = self._program(lpn)
        old = self._map[lpn]
        self._map[lpn] = ppn
        if old < 0:
            self._mapped += 1
        else:
            self._invalidate(old)
        return ppn

    def _program(self, lpn: int) -> int:
        """Program one page on the next chip in the stripe order, or on a
        borrowed block once every owned chip is full, and record ``lpn``
        in that chip's reverse map.  Returns the page's ppn."""
        chips = self.chips
        n = len(chips)
        for offset in range(n):
            slot = (self._next_chip + offset) % n
            block = self._active[slot]
            if block is None or block.is_full:
                try:
                    block = chips[slot].allocate_block()
                except OutOfSpaceError:
                    continue
                self._active[slot] = block
            self._next_chip = (slot + 1) % n
            index = block.block_id * self.pages_per_block + block.program_next()
            chips[slot].rmap[index] = lpn
            return slot << _SLOT_SHIFT | index
        # Owned chips exhausted; spill into borrowed blocks if any.
        if self._borrowed_free:
            borrowed = self._borrowed_free[0]
            ppn = borrowed.base + borrowed.block.program_next()
            if borrowed.block.is_full:
                self._borrowed_free.pop(0)
            borrowed.chip.rmap[ppn & _PAGE_MASK] = lpn
            return ppn
        raise OutOfSpaceError(
            f"FTL {self.name}: no free pages on any owned chip "
            f"(free blocks={self.free_blocks_total()})"
        )

    def _invalidate(self, ppn: int) -> None:
        chip = self._slots[ppn >> _SLOT_SHIFT]
        index = ppn & _PAGE_MASK
        block_id, page = divmod(index, self.pages_per_block)
        chip.invalidate(block_id, page)
        chip.rmap[index] = -1

    def _addr(self, ppn: int) -> PhysicalAddr:
        block_id, page = divmod(ppn & _PAGE_MASK, self.pages_per_block)
        return PhysicalAddr(self._slots[ppn >> _SLOT_SHIFT], block_id, page)

    # ------------------------------------------------------------ free space

    def free_blocks_total(self) -> int:
        """Free blocks across owned chips (borrowed blocks excluded)."""
        return sum(chip.free_block_count for chip in self.chips)

    def free_block_ratio(self) -> float:
        """Fraction of owned blocks that are erased and ready.

        This is the quantity compared against the paper's
        ``soft_threshold`` (35%) and ``gc_threshold`` (25%).
        """
        return self.free_blocks_total() / self.total_blocks

    # ------------------------------------------------------------------- GC

    def select_victim(self) -> Optional[PhysicalAddr]:
        """Greedy victim among the blocks this FTL collects: the most
        invalid pages (§3.7's greedy GC).

        Returns the victim as a ``PhysicalAddr`` with ``page=0`` (the
        block is what matters), or ``None`` when no block has stale pages.
        Owned blocks are candidates except the active write blocks and
        blocks lent out; borrowed blocks are candidates once full.  Ties
        go to the first in order: owned chips, then borrowed blocks.
        """
        lent = self._lent
        best: Optional[Tuple[int, FlashChip, Block]] = None
        # Each owned chip's stale-page counts name its first maximum in
        # block order, without a scan of its blocks.
        for chip, active in zip(self.chips, self._active):
            block = chip.most_stale(active, lent)
            if block is not None and (
                    best is None or block.invalid_count > best[0]):
                best = (block.invalid_count, chip, block)
        for borrowed in self._borrowed.values():
            block = borrowed.block
            if block.invalid_count and block.is_full and (
                    best is None or block.invalid_count > best[0]):
                best = (block.invalid_count, borrowed.chip, block)
        if best is None:
            return None
        _, chip, block = best
        return PhysicalAddr(chip, block.block_id, 0)

    def has_stale(self) -> bool:
        """Whether :meth:`select_victim` would find a victim, without the
        whole-device scan: stops at the first eligible block."""
        lent = self._lent
        for chip, active in zip(self.chips, self._active):
            for block in chip.blocks:
                if block.invalid_count > 0 and block is not active and block not in lent:
                    return True
        for borrowed in self._borrowed.values():
            if borrowed.block.invalid_count > 0 and borrowed.block.is_full:
                return True
        return False

    def victim_valid_lpns(self, victim: PhysicalAddr) -> List[int]:
        """Logical pages that must be migrated before erasing the victim."""
        chip = victim.chip
        first = victim.block_id * self.pages_per_block
        base = self._slots.index(chip) << _SLOT_SHIFT | first
        rmap, fmap, logical = chip.rmap, self._map, self.logical_pages
        lpns = []
        for page in chip.blocks[victim.block_id].valid_pages():
            lpn = rmap[first + page]
            if not (0 <= lpn < logical and fmap[lpn] == base + page):
                raise FlashError(
                    f"FTL {self.name}: valid page {(chip.chip_id, victim.block_id, page)} "
                    "has no reverse mapping"
                )
            lpns.append(lpn)
        return lpns

    def migrate_page(self, lpn: int) -> Tuple[PhysicalAddr, PhysicalAddr]:
        """Move one valid page out of a GC victim; returns (old, new)."""
        old = self._map[lpn] if 0 <= lpn < self.logical_pages else -1
        if old < 0:
            raise AddressError(f"lpn {lpn} is not mapped")
        new = self._remap(lpn)
        self.gc_writes += 1
        return self._addr(old), self._addr(new)

    def commit_erase(self, victim: PhysicalAddr) -> None:
        """Erase bookkeeping for a fully migrated victim block."""
        block = victim.chip.blocks[victim.block_id]
        victim.chip.erase_block(block)
        self.gc_erases += 1
        borrowed = self._borrowed.pop(block, None)
        if borrowed is not None:
            # Borrowed blocks are erased (the paper erases them "for
            # security") and handed back to the lender's free pool.
            borrowed.lender._receive_returned_block(borrowed)  # noqa: SLF001
        else:
            victim.chip.release_block(block)

    # ------------------------------------------------------ block borrowing

    def lend_free_blocks(self, count: int, borrower: "PageMappedFtl") -> int:
        """Loan up to ``count`` free blocks to a collocated vSSD's FTL.

        Returns how many blocks were actually transferred.  Lending never
        drains the pool completely: one free block per chip is retained so
        the lender can still allocate an active block.  A lent block is
        the borrower's until its GC erases it and returns it.
        """
        granted = 0
        for chip in self.chips:
            while granted < count and chip.free_block_count > 1:
                block = chip.allocate_block()
                self._lent.add(block)
                borrower._borrow(chip, block, self)  # noqa: SLF001
                granted += 1
            if granted >= count:
                break
        return granted

    def _borrow(self, chip: FlashChip, block: Block, lender: "PageMappedFtl") -> None:
        if chip not in self._slots:
            self._slots.append(chip)
        base = (self._slots.index(chip) << _SLOT_SHIFT
                | block.block_id * self.pages_per_block)
        borrowed = BorrowedBlock(chip, block, lender, base)
        self._borrowed_free.append(borrowed)
        self._borrowed[block] = borrowed

    def _receive_returned_block(self, borrowed: BorrowedBlock) -> None:
        self._lent.discard(borrowed.block)
        borrowed.chip.release_block(borrowed.block)

    @property
    def borrowed_block_count(self) -> int:
        return len(self._borrowed)

    # ------------------------------------------------------------ statistics

    def write_amplification(self) -> float:
        """(host + GC writes) / host writes; 1.0 when GC never ran."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_writes) / self.host_writes

    def mapped_page_count(self) -> int:
        return self._mapped

    def utilization(self) -> float:
        """Mapped logical pages as a fraction of logical capacity."""
        return self._mapped / self.logical_pages if self.logical_pages else 0.0

    def check_invariants(self) -> None:
        """Verify that the forward map, the reverse maps and the page
        states agree exactly (test hook).

        Every mapped page is VALID and its reverse entry points back;
        every VALID page in a block this FTL holds (owned and not lent, or
        borrowed) has the forward entry that points at it; and the mapped
        count, the forward entries and those blocks' valid pages are equal.
        """
        entries = 0
        for lpn, ppn in enumerate(self._map):
            if ppn < 0:
                continue
            entries += 1
            addr = self._addr(ppn)
            block = addr.chip.blocks[addr.block_id]
            if (block.page_state(addr.page) is not PageState.VALID
                    or addr.chip.rmap[ppn & _PAGE_MASK] != lpn):
                raise FlashError(
                    f"FTL {self.name}: lpn {lpn} maps to {addr.key()}, "
                    "not a valid page whose reverse entry points back"
                )
        held = [(chip, block) for chip in self.chips for block in chip.blocks
                if block not in self._lent]
        held += [(b.chip, b.block) for b in self._borrowed.values()]
        valid = 0
        for chip, block in held:
            valid += block.valid_count
            # Raises for a VALID page that no forward entry points at.
            self.victim_valid_lpns(PhysicalAddr(chip, block.block_id, 0))
        if not entries == valid == self._mapped:
            raise FlashError(
                f"FTL {self.name}: {entries} forward entries, {valid} valid "
                f"pages, {self._mapped} counted as mapped"
            )

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise AddressError(
                f"lpn {lpn} out of range [0,{self.logical_pages}) for {self.name}"
            )
