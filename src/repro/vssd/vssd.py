"""The vSSD: a virtual SSD instance with its own FTL and GC.

Reads and writes are timed operations that occupy the backing flash
channels; GC occupies the victim's channel for the duration of its page
migrations and erase, producing exactly the head-of-line blocking the
paper's coordinated GC is designed to hide.
"""

import enum
from functools import partial
from typing import Callable, List, Optional

from repro.errors import FlashError, VSSDError
from repro.flash.chip import FlashChip
from repro.flash.ftl import PageMappedFtl
from repro.flash.gc import GcResult, GreedyGcPolicy
from repro.flash.ssd import Ssd
from repro.vssd.token_bucket import TokenBucket


class IsolationType(enum.Enum):
    """How a vSSD is isolated from its neighbours (Figure 4)."""

    HARDWARE = "hardware"  # owns whole channels
    SOFTWARE = "software"  # owns chips, shares channels


class VSsd:
    """One virtual SSD instance carved from a physical SSD."""

    def __init__(
        self,
        vssd_id: int,
        name: str,
        ssd: Ssd,
        chips: List[FlashChip],
        isolation: IsolationType,
        overprovision: float = 0.25,
        gc_policy: Optional[GreedyGcPolicy] = None,
        rate_limiter: Optional[TokenBucket] = None,
    ) -> None:
        if not chips:
            raise VSSDError(f"vSSD {name!r} needs at least one chip")
        if isolation is IsolationType.SOFTWARE and rate_limiter is None:
            # Software isolation *is* the token bucket (§3.3); default to a
            # generous bucket so unconfigured tests are not throttled.
            rate_limiter = TokenBucket(ssd.sim, rate_per_sec=1e9, capacity=1e9)
        self.vssd_id = vssd_id
        self.name = name
        self.ssd = ssd
        self.sim = ssd.sim
        self.isolation = isolation
        self.ftl = PageMappedFtl(
            name, chips, ssd.geometry.pages_per_block, overprovision=overprovision
        )
        self.gc_policy = gc_policy if gc_policy is not None else GreedyGcPolicy()
        self.rate_limiter = rate_limiter
        # The media path's per-operation constants, resolved once.
        self._channel_by_chip = ssd.channel_by_chip
        self._read_us = ssd.profile.read_latency(self.page_kb)
        self._program_us = ssd.profile.program_latency(self.page_kb)

        #: True while a GC pass is running (mirrored into the switch tables).
        self.gc_active = False
        #: Set by the channel group, if this vSSD belongs to one.
        self.channel_group = None

        # Per-vSSD I/O statistics.
        self.reads_served = 0
        self.writes_served = 0
        self.gc_runs = 0
        self.gc_busy_us = 0.0

    @property
    def page_kb(self) -> float:
        return float(self.ssd.geometry.page_size_kb)

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    def free_block_ratio(self) -> float:
        return self.ftl.free_block_ratio()

    # ------------------------------------------------------------------- I/O

    def start_read(self, lpn: int, then: Callable[[], None],
                   fail: Optional[Callable[[FlashError], None]] = None) -> None:
        """Read one logical page, including rate limiting and channel
        queueing; ``then()`` runs when the data is off the bus.

        A mapping error (an ``lpn`` outside the logical space) goes to
        ``fail(exc)`` when given, so one bad request fails alone; without
        it the error propagates to whoever runs the simulator.
        """
        self._throttled(self._read_media, lpn, then, fail)

    def start_write(self, lpn: int, then: Callable[[], None],
                    fail: Optional[Callable[[FlashError], None]] = None) -> None:
        """Program one logical page out-of-place; ``then()`` runs when the
        program completes.  Mapping and out-of-space errors go to
        ``fail(exc)`` as for :meth:`start_read`."""
        self._throttled(self._program_media, lpn, then, fail)

    def _throttled(self, media_op: Callable[..., None], *args) -> None:
        # Software isolation: an op over its tenant's rate waits out the
        # token bucket before it may touch the shared channels.
        if self.rate_limiter is not None:
            wait = self.rate_limiter.delay_for(1)
            if wait > 0:
                self.sim.schedule_after(wait, partial(media_op, *args))
                return
        media_op(*args)

    def _read_media(self, lpn: int, then: Callable[[], None],
                    fail: Optional[Callable[[FlashError], None]]) -> None:
        try:
            ppn = self.ftl.lookup_ppn(lpn)
        except FlashError as exc:
            if fail is None:
                raise
            fail(exc)
            return
        if ppn < 0:
            # Unwritten page: the device still performs an array read (it
            # returns the erased pattern); charge the stripe-target chip.
            chip = self.ftl.chips[lpn % len(self.ftl.chips)]
        else:
            chip = self.ftl.chip_of(ppn)
        self._channel_by_chip[chip.chip_id].submit(
            "read", self._read_us, partial(self._read_done, then)
        )

    def _read_done(self, then: Callable[[], None]) -> None:
        self.reads_served += 1
        then()

    def _program_media(self, lpn: int, then: Callable[[], None],
                       fail: Optional[Callable[[FlashError], None]]) -> None:
        try:
            ppn = self.ftl.place_ppn(lpn)
        except FlashError as exc:
            if fail is None:
                raise
            fail(exc)
            return
        self._channel_by_chip[self.ftl.chip_of(ppn).chip_id].submit(
            "program", self._program_us, partial(self._program_done, then)
        )

    def _program_done(self, then: Callable[[], None]) -> None:
        self.ssd.pages_written += 1
        self.writes_served += 1
        then()

    # -------------------------------------------------------------------- GC

    def gc_until(self, target_ratio: float, then: Callable[[], None],
                 max_victims: int = 32,
                 fail: Optional[Callable[[FlashError], None]] = None) -> None:
        """Run GC until the free ratio recovers to ``target_ratio``, then
        call ``then()`` (at once when a pass is already running).

        State transitions happen victim-by-victim, but the physical work is
        issued as *individual* channel commands (page read, page program,
        block erase), exactly like real firmware: host I/O queued on the
        channel slips in between GC commands, so a read's worst-case GC
        stall is one erase (a few milliseconds), not a whole victim's worth
        of migrations -- matching §3.5's "a 4KB read ... may wait for a few
        milliseconds due to the GC".

        A victim whose live pages find no free page (``OutOfSpaceError``)
        ends the pass: the vSSD leaves GC, and the error goes to
        ``fail(exc)`` when given -- ``then`` is not called -- and is
        raised otherwise.
        """
        if self.gc_active:
            then()
            return
        self.gc_active = True
        self.gc_runs += 1
        self._gc_next_victim(target_ratio, max_victims, self.sim.now, then, fail)

    def _gc_next_victim(self, target_ratio: float, victims_left: int,
                        started: float, then: Callable[[], None],
                        fail: Optional[Callable[[FlashError], None]]) -> None:
        result = None
        if self.ftl.free_block_ratio() < target_ratio and victims_left > 0:
            try:
                result = self.gc_policy.collect_once(self.ftl)
            except FlashError as exc:
                result = exc
        if isinstance(result, GcResult):
            self._gc_migrate(result, 0, partial(
                self._gc_next_victim, target_ratio, victims_left - 1, started, then, fail))
            return
        self.gc_busy_us += self.sim.now - started
        self.gc_active = False
        if result is None:
            then()
        elif fail is None:
            raise result
        else:
            fail(result)

    def _gc_migrate(self, result: GcResult, index: int, then: Callable[[], None]) -> None:
        """Move the victim's live pages one at a time (read there, program
        here), then erase it."""
        if index == len(result.migrations):
            self.ssd.channel_of_chip(result.victim.chip).start_erase(then)
            return
        _lpn, old, new = result.migrations[index]
        dst_channel = self.ssd.channel_of_chip(new.chip)
        self.ssd.channel_of_chip(old.chip).submit("read", self._read_us, partial(
            dst_channel.submit, "program", self._program_us,
            partial(self._gc_migrate, result, index + 1, then)))

    def gc_needed(self) -> Optional[str]:
        """What kind of GC the FTL currently calls for.

        Returns ``"regular"`` below the hard threshold, ``"soft"`` below the
        soft threshold, else ``None`` (background GC is decided by the idle
        predictor, not by free space).
        """
        if self.gc_policy.needs_regular_gc(self.ftl):
            return "regular"
        if self.gc_policy.wants_soft_gc(self.ftl):
            return "soft"
        return None
