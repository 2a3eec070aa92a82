"""Channel groups for software-isolated vSSDs (§3.5.2).

Software-isolated vSSDs that span the same channels interfere through the
shared bus, so RackBlox groups them: **all vSSDs of a channel group perform
GC simultaneously** ("if one vSSD must perform GC and each vSSD will be
affected anyway, then all vSSDs should perform GC to reduce GC frequency").

To let the group wait for a common GC point, a vSSD that runs out of free
blocks *borrows* free blocks from collocated vSSDs, in groups (1 GB by
default in the paper; configurable in blocks here).  Borrowed blocks are
erased and returned after GC.  The group is managed entirely by the SDF
and never exposed to the switch.
"""

from functools import partial
from typing import Callable, List, Optional

from repro.errors import FlashError, VSSDError
from repro.sim import Join
from repro.vssd.vssd import IsolationType, VSsd


class ChannelGroup:
    """A set of software-isolated vSSDs sharing the same channels."""

    def __init__(self, name: str, members: List[VSsd], borrow_blocks: int = 8) -> None:
        if not members:
            raise VSSDError("channel group needs at least one member")
        for member in members:
            if member.isolation is not IsolationType.SOFTWARE:
                raise VSSDError(
                    f"vSSD {member.name!r} is hardware-isolated; channel groups "
                    "only hold software-isolated vSSDs"
                )
        channel_sets = [
            frozenset(
                member.ssd.geometry.channel_of_chip(chip.chip_id)
                for chip in member.ftl.chips
            )
            for member in members
        ]
        if len(set(channel_sets)) != 1:
            raise VSSDError(
                "channel-group members must span the same set of channels; "
                f"got {sorted(set(channel_sets), key=sorted)}"
            )
        self.name = name
        self.members = list(members)
        self.borrow_blocks = borrow_blocks
        self.sim = members[0].sim
        for member in members:
            member.channel_group = self
        self.group_gcs = 0
        self.blocks_borrowed = 0

    def free_block_ratio(self) -> float:
        """Aggregate free ratio across the group -- the threshold input."""
        free = sum(member.ftl.free_blocks_total() for member in self.members)
        total = sum(member.ftl.total_blocks for member in self.members)
        return free / total

    def rebalance_free_blocks(self) -> int:
        """Lend blocks to members that exhausted their own free pool.

        Called when a member is about to run dry but the *group* is still
        above the GC threshold, so group-wide GC can keep being delayed.
        Returns the number of blocks transferred.
        """
        moved = 0
        needy = [m for m in self.members if m.ftl.free_blocks_total() <= 1]
        donors = sorted(
            (m for m in self.members if m.ftl.free_blocks_total() > 2),
            key=lambda m: -m.ftl.free_blocks_total(),
        )
        for member in needy:
            for donor in donors:
                if donor is member:
                    continue
                granted = donor.ftl.lend_free_blocks(self.borrow_blocks, member.ftl)
                moved += granted
                if granted > 0:
                    break
        self.blocks_borrowed += moved
        return moved

    def needs_group_gc(self) -> Optional[str]:
        """GC kind for the whole group, from the aggregate free ratio."""
        # All members share a policy configuration; use the first's.
        policy = self.members[0].gc_policy
        ratio = self.free_block_ratio()
        if ratio < policy.gc_threshold:
            return "regular"
        if ratio < policy.soft_threshold:
            return "soft"
        return None

    def group_gc(self, target_ratio: float, then: Callable[[], None],
                 fail: Optional[Callable[[FlashError], None]] = None) -> None:
        """Run GC on every member simultaneously; ``then()`` once the last
        member's pass is done.

        The members' GC passes overlap in time, exactly like the paper's
        "all vSSDs of the channel group will perform GC simultaneously".
        A member pass that fails (see :meth:`VSsd.gc_until`) goes to
        ``fail`` and the group never calls ``then``; the other members'
        passes run to their end.
        """
        self.group_gcs += 1
        passes = Join(len(self.members), lambda _values: then())
        for index, member in enumerate(self.members):
            # tick: each member's pass starts one heap entry later
            self.sim.schedule_after(0.0, partial(
                member.gc_until, target_ratio, partial(passes.arrive, index, None),
                fail=fail))
