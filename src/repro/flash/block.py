"""Flash block and page state machine.

Pages in a block must be programmed sequentially, can only transition
FREE -> VALID -> INVALID, and return to FREE only through a whole-block
erase.  Every erase increments the block's erase count -- the quantity the
paper's wear-leveling machinery balances.
"""

import enum
from typing import List

from repro.errors import FlashError


class PageState(enum.Enum):
    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


# A page's state is one byte of its block's ``bytearray``; erased is zero.
_FREE, _VALID, _INVALID = 0, 1, 2
_STATES = (PageState.FREE, PageState.VALID, PageState.INVALID)


class Block:
    """One erase block: a sequentially-programmed array of pages."""

    __slots__ = ("block_id", "pages_per_block", "_states", "_write_ptr",
                 "valid_count", "invalid_count", "erase_count")

    def __init__(self, block_id: int, pages_per_block: int) -> None:
        if pages_per_block <= 0:
            raise FlashError(f"pages_per_block must be positive, got {pages_per_block}")
        self.block_id = block_id
        self.pages_per_block = pages_per_block
        self._states = bytearray(pages_per_block)
        self._write_ptr = 0
        self.valid_count = 0
        #: Programmed pages since gone stale -- what greedy GC ranks
        #: victims by, kept as a count so a victim scan reads it for free.
        self.invalid_count = 0
        self.erase_count = 0

    @property
    def is_full(self) -> bool:
        """True once every page has been programmed since the last erase."""
        return self._write_ptr >= self.pages_per_block

    @property
    def is_empty(self) -> bool:
        """True when the block is fully erased and unprogrammed."""
        return self._write_ptr == 0

    @property
    def free_pages(self) -> int:
        return self.pages_per_block - self._write_ptr

    def page_state(self, page: int) -> PageState:
        self._check_page(page)
        return _STATES[self._states[page]]

    def program_next(self) -> int:
        """Program the next sequential page; returns its index."""
        page = self._write_ptr
        if page >= self.pages_per_block:
            raise FlashError(f"block {self.block_id} is full")
        self._states[page] = _VALID
        self._write_ptr = page + 1
        self.valid_count += 1
        return page

    def invalidate(self, page: int) -> None:
        """Mark a previously valid page as stale (out-of-place overwrite)."""
        if not 0 <= page < self.pages_per_block:
            self._check_page(page)  # raises
        if self._states[page] != _VALID:
            raise FlashError(
                f"block {self.block_id} page {page} is "
                f"{_STATES[self._states[page]].value}, cannot invalidate"
            )
        self._states[page] = _INVALID
        self.valid_count -= 1
        self.invalid_count += 1

    def erase(self) -> None:
        """Erase the whole block, freeing every page and bumping wear."""
        if self.valid_count > 0:
            raise FlashError(
                f"block {self.block_id} still holds {self.valid_count} valid pages; "
                "migrate them before erasing"
            )
        self._states = bytearray(self.pages_per_block)
        self._write_ptr = 0
        self.invalid_count = 0
        self.erase_count += 1

    def valid_pages(self) -> List[int]:
        """Indexes of the pages currently holding live data."""
        states = self._states
        return [page for page in range(self._write_ptr) if states[page] == _VALID]

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.pages_per_block:
            raise FlashError(
                f"page {page} out of range [0,{self.pages_per_block}) "
                f"in block {self.block_id}"
            )
