"""Tests for the page-mapped FTL, greedy GC, and block borrowing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, FlashError, OutOfSpaceError
from repro.flash import FlashChip, GreedyGcPolicy, PageMappedFtl, PSSD


def make_ftl(chips=2, blocks=16, pages=8, overprovision=0.25, name="ftl"):
    chip_objs = [FlashChip(i, blocks, pages) for i in range(chips)]
    return PageMappedFtl(name, chip_objs, pages, overprovision=overprovision)


def lending_pair():
    """A lender (chip 0, 8 blocks) and a borrower (chip 1, 4 blocks, 12
    logical pages) on one SSD, 4 pages per block."""
    lender = PageMappedFtl("lender", [FlashChip(0, 8, 4)], 4)
    borrower = PageMappedFtl("borrower", [FlashChip(1, 4, 4)], 4)
    return lender, borrower


def collect_all(ftl):
    policy = GreedyGcPolicy()
    while policy.collect_once(ftl) is not None:
        pass


class TestMapping:
    def test_unwritten_page_unmapped(self):
        ftl = make_ftl()
        assert ftl.lookup(0) is None

    def test_write_then_read_roundtrip(self):
        ftl = make_ftl()
        addr = ftl.place_write(5)
        assert ftl.lookup(5) == addr

    def test_overwrite_invalidates_old_location(self):
        ftl = make_ftl()
        first = ftl.place_write(3)
        second = ftl.place_write(3)
        assert first != second
        from repro.flash import PageState

        assert first.chip.blocks[first.block_id].page_state(first.page) is PageState.INVALID

    def test_ftl_survives_pickle_and_deepcopy(self):
        # A checkpoint or a process pool result must round-trip the
        # mapping tables, and addresses must come back on the clone's chips.
        import copy
        import pickle

        ftl = make_ftl()
        for lpn in range(6):
            ftl.place_write(lpn)
        for clone in (pickle.loads(pickle.dumps(ftl)), copy.deepcopy(ftl)):
            for lpn in range(6):
                addr, original = clone.lookup(lpn), ftl.lookup(lpn)
                assert addr.key() == original.key()
                assert addr.chip is not original.chip
                assert addr.chip is clone.chips[addr.chip.chip_id]
            assert clone.place_write(6) == clone.lookup(6)

    def test_writes_stripe_across_chips(self):
        ftl = make_ftl(chips=4)
        chips_used = {ftl.place_write(i).chip.chip_id for i in range(8)}
        assert len(chips_used) == 4

    def test_lpn_bounds_enforced(self):
        ftl = make_ftl()
        with pytest.raises(AddressError):
            ftl.lookup(ftl.logical_pages)
        with pytest.raises(AddressError):
            ftl.place_write(-1)

    def test_logical_capacity_reflects_overprovision(self):
        ftl = make_ftl(chips=1, blocks=10, pages=10, overprovision=0.2)
        assert ftl.logical_pages == 80
        assert ftl.total_physical_pages == 100

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.place_write(7)
        ftl.trim(7)
        assert ftl.lookup(7) is None

    def test_trim_unwritten_is_noop(self):
        ftl = make_ftl()
        ftl.trim(0)  # must not raise

    @pytest.mark.parametrize("damage", ["stale", "unlinked", "orphan"])
    def test_check_invariants_catches_any_lost_page(self, damage):
        ftl = make_ftl()
        for lpn in range(6):
            ftl.place_write(lpn)
        ftl.check_invariants()
        addr = ftl.lookup(3)
        block = addr.chip.blocks[addr.block_id]
        if damage == "stale":  # a mapped page gone invalid
            block.invalidate(addr.page)
        elif damage == "unlinked":  # its reverse entry lost
            addr.chip.rmap[addr.block_id * ftl.pages_per_block + addr.page] = -1
        else:  # a valid page no logical page maps to
            block.program_next()
        with pytest.raises(FlashError):
            ftl.check_invariants()

    def test_needs_at_least_one_chip(self):
        with pytest.raises(FlashError):
            PageMappedFtl("x", [], 8)

    def test_invalid_overprovision(self):
        with pytest.raises(FlashError):
            make_ftl(overprovision=0.0)
        with pytest.raises(FlashError):
            make_ftl(overprovision=1.0)


class TestFreeSpace:
    def test_fresh_device_fully_free(self):
        ftl = make_ftl()
        assert ftl.free_block_ratio() == 1.0

    def test_ratio_decreases_with_writes(self):
        ftl = make_ftl(chips=1, blocks=8, pages=8)
        before = ftl.free_block_ratio()
        for lpn in range(16):  # two blocks' worth
            ftl.place_write(lpn)
        assert ftl.free_block_ratio() < before

    def test_fill_device_to_capacity(self):
        ftl = make_ftl(chips=1, blocks=8, pages=8, overprovision=0.25)
        for lpn in range(ftl.logical_pages):
            ftl.place_write(lpn)
        assert ftl.mapped_page_count() == ftl.logical_pages
        assert ftl.utilization() == 1.0

    def test_out_of_space_without_gc(self):
        # Writing far beyond capacity with no GC must eventually fail.
        ftl = make_ftl(chips=1, blocks=4, pages=4, overprovision=0.25)
        with pytest.raises(OutOfSpaceError):
            for _ in range(100):
                ftl.place_write(0)  # same lpn: creates invalid pages, no GC


class TestGreedyGc:
    def test_no_victim_on_clean_device(self):
        ftl = make_ftl()
        assert ftl.select_victim() is None

    def test_victim_has_most_invalids(self):
        ftl = make_ftl(chips=1, blocks=8, pages=4)
        # Fill 3 blocks; then invalidate different amounts via overwrites.
        for lpn in range(12):
            ftl.place_write(lpn)
        for lpn in (0, 1, 2):  # first block gets 3 invalids
            ftl.place_write(lpn)
        victim = ftl.select_victim()
        assert victim is not None
        block = victim.chip.blocks[victim.block_id]
        assert block.invalid_count == 3

    def test_collect_once_frees_a_block(self):
        ftl = make_ftl(chips=1, blocks=8, pages=4)
        for lpn in range(12):
            ftl.place_write(lpn)
        for lpn in range(4):
            ftl.place_write(lpn)
        policy = GreedyGcPolicy()
        free_before = ftl.free_blocks_total()
        result = policy.collect_once(ftl)
        assert result is not None
        assert ftl.free_blocks_total() >= free_before
        ftl.check_invariants()

    def test_gc_preserves_logical_data(self):
        ftl = make_ftl(chips=1, blocks=8, pages=4)
        live = {}
        for lpn in range(12):
            live[lpn] = ftl.place_write(lpn)
        for lpn in range(4):
            live[lpn] = ftl.place_write(lpn)
        policy = GreedyGcPolicy()
        policy.collect_once(ftl)
        # Every lpn still mapped, and migrated pages moved consistently.
        for lpn in live:
            assert ftl.lookup(lpn) is not None
        ftl.check_invariants()

    def test_collect_until_restores_ratio(self):
        ftl = make_ftl(chips=2, blocks=16, pages=8, overprovision=0.3)
        policy = GreedyGcPolicy()
        rng_lpns = list(range(ftl.logical_pages)) * 2
        for lpn in rng_lpns:
            if ftl.free_block_ratio() < 0.2:
                policy.collect_until(ftl, target_ratio=0.3)
            ftl.place_write(lpn)
        assert ftl.free_block_ratio() >= 0.15
        ftl.check_invariants()

    def test_gc_writes_counted(self):
        ftl = make_ftl(chips=1, blocks=8, pages=4)
        for lpn in range(12):
            ftl.place_write(lpn)
        for lpn in (0,):
            ftl.place_write(lpn)
        policy = GreedyGcPolicy()
        result = policy.collect_once(ftl)
        assert result is not None
        assert ftl.gc_writes == result.pages_moved
        assert ftl.gc_erases == 1
        assert ftl.write_amplification() > 1.0

    def test_thresholds_validate(self):
        with pytest.raises(ValueError):
            GreedyGcPolicy(gc_threshold=0.5, soft_threshold=0.3)

    def test_threshold_predicates(self):
        ftl = make_ftl(chips=1, blocks=10, pages=4, overprovision=0.3)
        policy = GreedyGcPolicy(gc_threshold=0.25, soft_threshold=0.35)
        assert not policy.wants_soft_gc(ftl)
        # Consume blocks until below soft threshold (free ratio < 0.35).
        lpn = 0
        while ftl.free_block_ratio() >= 0.35:
            ftl.place_write(lpn % ftl.logical_pages)
            lpn += 1
        assert policy.wants_soft_gc(ftl)

    def test_work_duration_scales_with_moves(self):
        from repro.flash.gc import GcResult
        from repro.flash.ftl import PhysicalAddr

        chip = FlashChip(0, 4, 4)
        policy = GreedyGcPolicy()
        empty = GcResult(victim=PhysicalAddr(chip, 0, 0))
        assert policy.work_duration_us(empty, PSSD) == PSSD.erase_us
        moved = GcResult(
            victim=PhysicalAddr(chip, 0, 0),
            migrations=[(0, PhysicalAddr(chip, 0, 0), PhysicalAddr(chip, 1, 0))],
        )
        assert policy.work_duration_us(moved, PSSD) > PSSD.erase_us


class TestBlockBorrowing:
    def test_lend_transfers_free_blocks(self):
        lender = make_ftl(chips=1, blocks=16, pages=4, name="lender")
        borrower = make_ftl(chips=1, blocks=16, pages=4, name="borrower")
        granted = lender.lend_free_blocks(4, borrower)
        assert granted == 4
        assert borrower.borrowed_block_count == 4
        assert lender.free_blocks_total() == 12

    def test_lender_keeps_one_block_per_chip(self):
        lender = make_ftl(chips=1, blocks=4, pages=4, name="lender")
        borrower = make_ftl(chips=1, blocks=4, pages=4, name="borrower")
        granted = lender.lend_free_blocks(10, borrower)
        assert granted == 3
        assert lender.free_blocks_total() == 1

    def test_borrowed_blocks_absorb_overflow_writes(self):
        borrower = make_ftl(chips=1, blocks=4, pages=4, overprovision=0.25,
                            name="borrower")
        lender = make_ftl(chips=1, blocks=8, pages=4, name="lender")
        lender.lend_free_blocks(2, borrower)
        # Exhaust the borrower's own space with rewrites, then keep going:
        # the borrowed blocks must absorb the spill instead of raising.
        for i in range(20):
            borrower.place_write(i % borrower.logical_pages)
        assert borrower.borrowed_block_count > 0

    def test_borrowed_block_returned_after_gc(self):
        lender, borrower = lending_pair()
        lender_free_before = lender.free_blocks_total()
        lender.lend_free_blocks(2, borrower)
        # Fill the borrower's own blocks, then spill into both borrowed ones.
        for lpn in list(range(12)) + list(range(4)) + list(range(8)):
            borrower.place_write(lpn)
        assert all(b.is_full for b in borrower._borrowed)
        assert borrower.lookup(0).chip is lender.chips[0]
        # Rewrite what the loan holds and collect: both borrowed blocks
        # are erased and handed back.
        collect_all(borrower)
        for lpn in range(8):
            borrower.place_write(lpn)
        collect_all(borrower)
        assert borrower.borrowed_block_count == 0
        assert lender.free_blocks_total() == lender_free_before
        for ftl in (lender, borrower):
            ftl.check_invariants()

    def test_lender_never_collects_a_block_it_lent(self):
        # A lent block holding the borrower's valid pages among stale
        # ones: it is the borrower's to collect, not the lender's.
        lender, borrower = lending_pair()
        lender.lend_free_blocks(1, borrower)
        for lpn in list(range(12)) + list(range(4)) + [4, 5, 4]:
            borrower.place_write(lpn)
        loaned = borrower.lookup(4).chip.blocks[borrower.lookup(4).block_id]
        assert loaned.invalid_count == 1 and loaned.valid_count == 2
        for lpn in range(12):  # the lender's own stale pages
            lender.place_write(lpn % 6)
        victim = lender.select_victim()
        assert victim is not None
        assert victim.chip.blocks[victim.block_id] is not loaned
        collect_all(lender)
        assert loaned.valid_count == 2
        assert borrower.lookup(5).chip is lender.chips[0]
        for ftl in (lender, borrower):
            ftl.check_invariants()

    def test_a_fully_stale_lent_block_goes_back_once(self):
        # The lender must not erase a lent block into its own pool even
        # when nothing in it is valid; the borrower returns it exactly once.
        lender, borrower = lending_pair()
        lender.lend_free_blocks(1, borrower)
        for lpn in list(range(12)) + list(range(4)) + list(range(4, 8)):
            borrower.place_write(lpn)
        loaned = borrower.lookup(4).chip.blocks[borrower.lookup(4).block_id]
        collect_all(borrower)  # the borrower's own stale blocks
        for lpn in range(4, 8):
            borrower.place_write(lpn)
        assert loaned.invalid_count == 4
        assert lender.select_victim() is None
        assert GreedyGcPolicy().collect_once(lender) is None
        assert lender.free_blocks_total() == 7
        collect_all(borrower)
        assert loaned.erase_count == 1
        assert lender.free_blocks_total() == 8
        assert borrower.borrowed_block_count == 0

    def test_borrower_collects_and_returns_loans_under_churn(self):
        # Rounds of rewriting the borrower's whole logical space, each
        # followed by GC: two rounds spill two blocks each into the loan,
        # and the round after each spill makes those blocks stale.
        lender, borrower = lending_pair()
        lender.lend_free_blocks(4, borrower)
        rounds = []
        for _ in range(5):
            for lpn in range(borrower.logical_pages):
                borrower.place_write(lpn)
            spilled = sum(not b.is_empty for b in borrower._borrowed)
            collect_all(borrower)
            # No borrowed block is left full with nothing valid in it.
            assert not any(b.is_full and b.valid_count == 0 for b in borrower._borrowed)
            for ftl in (lender, borrower):
                ftl.check_invariants()
            rounds.append((spilled, lender.free_blocks_total()))
        assert rounds == [(0, 4), (2, 4), (2, 6), (2, 6), (2, 8)]
        assert borrower.borrowed_block_count == 0

    def test_loans_are_told_apart_by_chip_not_chip_id(self):
        # Two chip sets numbered from 0: erasing the borrower's own block
        # 0 must not return the lender's block 0 it has borrowed.
        lender = make_ftl(chips=1, blocks=8, pages=4, name="lender")
        borrower = make_ftl(chips=1, blocks=4, pages=4, name="borrower")
        lender.lend_free_blocks(1, borrower)
        for lpn in list(range(12)) + list(range(4)) + [4]:
            borrower.place_write(lpn)
        assert borrower.lookup(4).key() == (0, 0, 0)
        assert borrower.lookup(4).chip is lender.chips[0]
        victim = borrower.select_victim()
        assert victim.chip is borrower.chips[0] and victim.block_id == 0
        GreedyGcPolicy().collect_once(borrower)
        assert borrower.borrowed_block_count == 1
        assert lender.free_blocks_total() == 7
        assert lender.chips[0].blocks[0].valid_count == 1
        for ftl in (lender, borrower):
            ftl.check_invariants()


class TestFtlProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        writes=st.lists(st.integers(min_value=0, max_value=47), min_size=1,
                        max_size=300),
    )
    def test_mapping_stays_consistent_under_random_writes_and_gc(self, writes):
        """Invariant: after any write/GC interleaving, every written lpn is
        mapped exactly once and map/rmap agree."""
        ftl = make_ftl(chips=2, blocks=8, pages=4, overprovision=0.25)
        policy = GreedyGcPolicy()
        written = set()
        for lpn in writes:
            if ftl.free_block_ratio() < 0.3:
                policy.collect_until(ftl, target_ratio=0.4)
            ftl.place_write(lpn)
            written.add(lpn)
        ftl.check_invariants()
        for lpn in written:
            assert ftl.lookup(lpn) is not None
        assert ftl.mapped_page_count() == len(written)

    @settings(max_examples=20, deadline=None)
    @given(
        writes=st.lists(st.integers(min_value=0, max_value=23), min_size=50,
                        max_size=400),
    )
    def test_physical_valid_pages_equal_mapped_pages(self, writes):
        """Invariant: sum of valid pages across blocks == mapped lpn count."""
        ftl = make_ftl(chips=1, blocks=8, pages=4, overprovision=0.25)
        policy = GreedyGcPolicy()
        for lpn in writes:
            if ftl.free_block_ratio() < 0.3:
                policy.collect_until(ftl, target_ratio=0.4)
            ftl.place_write(lpn)
        valid_total = sum(
            b.valid_count for chip in ftl.chips for b in chip.blocks
        )
        assert valid_total == ftl.mapped_page_count()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_gc_never_loses_free_blocks(self, seed):
        """GC must be monotone: collecting cannot reduce free space."""
        import random

        rng = random.Random(seed)
        ftl = make_ftl(chips=1, blocks=8, pages=4, overprovision=0.25)
        policy = GreedyGcPolicy()
        for _ in range(100):
            if ftl.free_block_ratio() < 0.3:
                before = ftl.free_blocks_total()
                policy.collect_until(ftl, target_ratio=0.4)
                assert ftl.free_blocks_total() >= before
            ftl.place_write(rng.randrange(ftl.logical_pages))

    @pytest.mark.parametrize("borrowing", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_has_stale_agrees_with_select_victim(self, seed, borrowing):
        """``has_stale()`` is ``select_victim() is not None`` without the
        scan -- after every write, trim, migration and erase, with and
        without borrowed blocks in play."""
        import random

        rng = random.Random(seed)
        ftl = make_ftl(chips=2, blocks=6, pages=4, overprovision=0.25)
        ftls = [ftl]
        gc_share = 0.25
        if borrowing:
            # Rare GC, so the borrower runs dry and spills into the loan.
            gc_share = 0.03
            # Chip ids are unique within a device.
            lender = PageMappedFtl("lender", [FlashChip(7, 8, 4)], 4)
            lender.lend_free_blocks(3, ftl)
            ftls.append(lender)
        spilled = False

        def check():
            for each in ftls:
                assert each.has_stale() == (each.select_victim() is not None)

        check()
        for _ in range(400):
            target = rng.choice(ftls)
            roll = rng.random()
            try:
                if roll < gc_share:
                    # One GC pass on the borrower, checked step by step.
                    victim = ftl.select_victim()
                    if victim is not None:
                        for lpn in ftl.victim_valid_lpns(victim):
                            ftl.migrate_page(lpn)
                            check()
                        ftl.commit_erase(victim)
                elif roll < gc_share + 0.15:
                    target.trim(rng.randrange(target.logical_pages))
                else:
                    target.place_write(rng.randrange(target.logical_pages))
            except OutOfSpaceError:
                pass
            spilled = spilled or any(not b.is_empty for b in ftl._borrowed)
            check()
        assert spilled == borrowing


class TestShadowModel:
    """Two FTLs on one SSD against a shadow of where each logical page
    was last put -- the kv-emulator idiom (``test_gc_preserves_data``,
    ``test_gc_waf_tracking``) -- checked after every write, trim, GC pass
    and block loan."""

    PAGES = 4

    step = st.tuples(
        st.sampled_from(["write"] * 6 + ["trim", "collect", "lend"]),
        st.integers(min_value=0, max_value=1),   # which FTL
        st.integers(min_value=0, max_value=11),  # lpn, or blocks to lend
    )

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(step, min_size=50, max_size=300))
    def test_every_step_agrees_with_the_shadow(self, steps):
        # One chip of 4 blocks (12 logical pages) each, so a few dozen
        # writes run an FTL dry and into the blocks it borrowed.
        chips = [FlashChip(i, 4, self.PAGES) for i in range(2)]
        ftls = [PageMappedFtl("a", chips[:1], self.PAGES),
                PageMappedFtl("b", chips[1:], self.PAGES)]
        shadows = [{}, {}]
        policy = GreedyGcPolicy()
        for op, who, arg in steps:
            ftl, shadow = ftls[who], shadows[who]
            if op == "write":
                try:
                    shadow[arg] = ftl.place_write(arg)
                except OutOfSpaceError:
                    pass
            elif op == "trim":
                ftl.trim(arg)
                shadow.pop(arg, None)
            elif op == "collect":
                victim = ftl.select_victim()
                # A pass that would run out of space midway is skipped:
                # the shadow follows whole passes only.
                if victim is None or self.room(ftl) < len(ftl.victim_valid_lpns(victim)):
                    continue
                lent = set(ftl._lent)
                result = policy.collect_once(ftl)
                assert result.victim.chip.blocks[result.victim.block_id] not in lent
                for lpn, _old, new in result.migrations:
                    shadow[lpn] = new
            else:
                ftl.lend_free_blocks(arg % 3 + 1, ftls[1 - who])
            self.check(ftls, shadows, chips)

    def room(self, ftl):
        """Pages ``ftl`` can still program."""
        return (
            sum(chip.free_block_count for chip in ftl.chips) * self.PAGES
            + sum(block.free_pages for block in ftl._active if block is not None)
            + sum(borrowed.block.free_pages for borrowed in ftl._borrowed_free)
        )

    def check(self, ftls, shadows, chips):
        for ftl, shadow in zip(ftls, shadows):
            # Last write or migration wins; trimmed and never-written
            # pages are unmapped.
            for lpn in range(ftl.logical_pages):
                assert ftl.lookup(lpn) == shadow.get(lpn)
            assert ftl.mapped_page_count() == len(shadow)
            ftl.check_invariants()
        blocks = [block for chip in chips for block in chip.blocks]
        assert sum(b.valid_count for b in blocks) == sum(len(s) for s in shadows)
        # Only full blocks are ever erased, so the device has programmed
        # what is written now plus a whole block per erase.
        programmed = sum(
            self.PAGES - b.free_pages + self.PAGES * b.erase_count for b in blocks
        )
        assert programmed == sum(f.host_writes + f.gc_writes for f in ftls)


class TestFootprint:
    def test_mapping_tables_cost_bytes_per_page(self):
        # Everything a 4-chip x 64-block x 32-page FTL holds, chips
        # included, with every logical page mapped once: 20.1 B per
        # physical page with flat tables (a forward and a reverse word,
        # a state byte, the blocks), 198 B with an address object, a
        # tuple key and a boxed int per mapped page.
        import tracemalloc

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ftl = make_ftl(chips=4, blocks=64, pages=32)
            for lpn in range(ftl.logical_pages):
                ftl.place_write(lpn)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / ftl.total_physical_pages <= 21.0
