"""Page-mapped flash translation layer.

Each vSSD runs its own FTL over the chips it owns (§3.3: "each vSSD has its
own address mapping table ... and local wear leveling").  The FTL performs
out-of-place writes, invalidating the previous physical page, and exposes
the free-block accounting that drives the paper's soft/hard GC thresholds.

The FTL is *pure state*: it decides placement and updates mappings, while
the timed channel operations are issued by the owning vSSD.  This split
keeps the state machine testable without a simulator.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AddressError, FlashError, OutOfSpaceError
from repro.flash.block import Block
from repro.flash.chip import FlashChip


@dataclass(frozen=True)
class PhysicalAddr:
    """A physical flash location: chip object + block + page."""

    # One instance per mapped page: slots halve the mapping table's memory.
    # (``dataclass(slots=True)`` needs Python 3.10; we support 3.9.)
    __slots__ = ("chip", "block_id", "page")

    chip: FlashChip
    block_id: int
    page: int

    # Frozen + slots: the default slot-state restore goes through
    # ``setattr`` and trips the frozen guard, so pickle and deepcopy need
    # the state protocol spelled out (as ``dataclass(slots=True)`` does).
    def __getstate__(self) -> Tuple[FlashChip, int, int]:
        return (self.chip, self.block_id, self.page)

    def __setstate__(self, state: Tuple[FlashChip, int, int]) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def key(self) -> Tuple[int, int, int]:
        return (self.chip.chip_id, self.block_id, self.page)


@dataclass
class BorrowedBlock:
    """A free block loaned by a collocated vSSD (channel-group borrowing)."""

    chip: FlashChip
    block_id: int
    lender: "PageMappedFtl"


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

        #: lpn -> PhysicalAddr for every written logical page.
        self._map: Dict[int, PhysicalAddr] = {}
        #: (chip_id, block_id, page) -> lpn, for GC migrations.
        self._rmap: Dict[Tuple[int, int, int], int] = {}
        #: Per-chip active (write) block; allocated lazily.
        self._active: Dict[int, Optional[Block]] = {c.chip_id: None for c in chips}
        self._chips_by_id = {c.chip_id: c for c in chips}
        self._next_chip = 0

        #: Blocks currently borrowed from collocated vSSDs, unused ones first.
        self._borrowed_free: List[BorrowedBlock] = []
        #: Borrowed blocks now holding our data (returned after GC erases them).
        self._borrowed_in_use: Dict[Tuple[int, int], BorrowedBlock] = {}

        # Statistics for write-amplification reporting.
        self.host_writes = 0
        self.gc_writes = 0
        self.gc_erases = 0

    # ------------------------------------------------------------------ reads

    def lookup(self, lpn: int) -> Optional[PhysicalAddr]:
        """Physical location of a logical page, or ``None`` if unwritten."""
        self._check_lpn(lpn)
        return self._map.get(lpn)

    # ----------------------------------------------------------------- writes

    def place_write(self, lpn: int) -> PhysicalAddr:
        """Choose a physical page for ``lpn``; updates mapping state.

        The previous location (if any) is invalidated -- the out-of-place
        write discipline that makes GC necessary in the first place.
        """
        self._check_lpn(lpn)
        old = self._map.get(lpn)
        addr = self._program_somewhere(lpn)
        if old is not None:
            old.chip.blocks[old.block_id].invalidate(old.page)
            self._rmap.pop(old.key(), None)
        self._map[lpn] = addr
        self._rmap[addr.key()] = lpn
        self.host_writes += 1
        return addr

    def _program_somewhere(self, lpn: int) -> PhysicalAddr:
        """Program one page on the next chip in the stripe order."""
        n = len(self.chips)
        for offset in range(n):
            chip = self.chips[(self._next_chip + offset) % n]
            try:
                addr = self._program_on_chip(chip)
            except OutOfSpaceError:
                continue
            self._next_chip = (self._next_chip + offset + 1) % n
            return addr
        # Owned chips exhausted; spill into borrowed blocks if any.
        if self._borrowed_free:
            return self._program_on_borrowed()
        raise OutOfSpaceError(
            f"FTL {self.name}: no free pages on any owned chip "
            f"(free blocks={self.free_blocks_total()})"
        )

    def _program_on_chip(self, chip: FlashChip) -> PhysicalAddr:
        active = self._active[chip.chip_id]
        if active is None or active.is_full:
            active = chip.allocate_block()  # raises OutOfSpaceError when empty
            self._active[chip.chip_id] = active
        page = active.program_next()
        return PhysicalAddr(chip, active.block_id, page)

    def _program_on_borrowed(self) -> PhysicalAddr:
        borrowed = self._borrowed_free[0]
        block = borrowed.chip.blocks[borrowed.block_id]
        page = block.program_next()
        if block.is_full:
            self._borrowed_free.pop(0)
        self._borrowed_in_use[(borrowed.chip.chip_id, borrowed.block_id)] = borrowed
        return PhysicalAddr(borrowed.chip, borrowed.block_id, page)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (invalidate without rewriting)."""
        self._check_lpn(lpn)
        old = self._map.pop(lpn, None)
        if old is not None:
            old.chip.blocks[old.block_id].invalidate(old.page)
            self._rmap.pop(old.key(), None)

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

    def select_victim(self, scorer=None) -> Optional[PhysicalAddr]:
        """Victim across owned chips; highest ``scorer(block)`` wins.

        The default scorer is greedy (most invalid pages).  Wear-aware
        policies pass their own scorer to fold erase counts in.  Returns
        the victim as a ``PhysicalAddr`` with ``page=0`` (the block is what
        matters), or ``None`` when no block has stale pages.  Active write
        blocks are exempt.
        """
        best: Optional[Tuple[float, FlashChip, Block]] = None
        for chip in self.chips:
            active = self._active[chip.chip_id]
            for block in chip.victim_candidates():
                if active is not None and block.block_id == active.block_id:
                    continue
                score = block.invalid_count if scorer is None else scorer(block)
                if best is None or score > best[0]:
                    best = (score, chip, block)
        if best is None:
            return None
        _, chip, block = best
        return PhysicalAddr(chip, block.block_id, 0)

    def has_stale(self) -> bool:
        """Whether :meth:`select_victim` would find a victim, without the
        whole-device scan: stops at the first eligible block."""
        for chip in self.chips:
            active = self._active[chip.chip_id]
            for block in chip.blocks:
                if block.invalid_count > 0 and block is not active:
                    return True
        return False

    def victim_valid_lpns(self, victim: PhysicalAddr) -> List[int]:
        """Logical pages that must be migrated before erasing the victim."""
        block = victim.chip.blocks[victim.block_id]
        lpns = []
        for page in block.valid_pages():
            key = (victim.chip.chip_id, victim.block_id, page)
            lpn = self._rmap.get(key)
            if lpn is None:
                raise FlashError(
                    f"FTL {self.name}: valid page {key} has no reverse mapping"
                )
            lpns.append(lpn)
        return lpns

    def migrate_page(self, lpn: int) -> Tuple[PhysicalAddr, PhysicalAddr]:
        """Move one valid page out of a GC victim; returns (old, new)."""
        old = self._map.get(lpn)
        if old is None:
            raise AddressError(f"lpn {lpn} is not mapped")
        new = self._program_somewhere(lpn)
        old.chip.blocks[old.block_id].invalidate(old.page)
        self._rmap.pop(old.key(), None)
        self._map[lpn] = new
        self._rmap[new.key()] = lpn
        self.gc_writes += 1
        return old, new

    def commit_erase(self, victim: PhysicalAddr) -> None:
        """Erase bookkeeping for a fully migrated victim block."""
        block = victim.chip.blocks[victim.block_id]
        block.erase()
        self.gc_erases += 1
        borrowed = self._borrowed_in_use.pop(
            (victim.chip.chip_id, victim.block_id), None
        )
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
        the lender can still allocate an active block.
        """
        granted = 0
        for chip in self.chips:
            while granted < count and chip.free_block_count > 1:
                block = chip.allocate_block()
                borrower._borrowed_free.append(  # noqa: SLF001
                    BorrowedBlock(chip=chip, block_id=block.block_id, lender=self)
                )
                granted += 1
            if granted >= count:
                break
        return granted

    def _receive_returned_block(self, borrowed: BorrowedBlock) -> None:
        borrowed.chip.release_block(borrowed.chip.blocks[borrowed.block_id])

    @property
    def borrowed_block_count(self) -> int:
        return len(self._borrowed_free) + len(self._borrowed_in_use)

    # ------------------------------------------------------------ statistics

    def write_amplification(self) -> float:
        """(host + GC writes) / host writes; 1.0 when GC never ran."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_writes) / self.host_writes

    def mapped_page_count(self) -> int:
        return len(self._map)

    def utilization(self) -> float:
        """Mapped logical pages as a fraction of logical capacity."""
        return len(self._map) / self.logical_pages if self.logical_pages else 0.0

    def check_invariants(self) -> None:
        """Verify map/rmap agreement and valid-page accounting (test hook)."""
        if len(self._map) != len(self._rmap):
            raise FlashError(
                f"map/rmap size mismatch: {len(self._map)} vs {len(self._rmap)}"
            )
        for lpn, addr in self._map.items():
            if self._rmap.get(addr.key()) != lpn:
                raise FlashError(f"rmap disagrees for lpn {lpn} at {addr.key()}")
        valid_total = sum(
            block.valid_count for chip in self.chips for block in chip.blocks
        )
        owned_mapped = sum(
            1 for addr in self._map.values() if addr.chip.chip_id in self._chips_by_id
            and addr.chip is self._chips_by_id[addr.chip.chip_id]
        )
        if valid_total < owned_mapped - len(self._borrowed_in_use) * self.pages_per_block:
            raise FlashError("valid-page accounting drifted below mapped count")

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise AddressError(
                f"lpn {lpn} out of range [0,{self.logical_pages}) for {self.name}"
            )
