"""Greedy threshold garbage collection.

The paper's default GC is "a greedy, threshold-based GC" (§3.7): when the
free-block ratio falls below a threshold, pick the block with the most
invalid pages, migrate its live pages, and erase it.

:class:`GreedyGcPolicy` produces a :class:`GcResult` describing the *work*
(migrations + erase); the owning vSSD turns that into timed channel
operations so the GC occupies the channel exactly as long as its page moves
and erase take.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.flash.ftl import PageMappedFtl, PhysicalAddr


@dataclass
class GcResult:
    """The outcome of collecting one victim block."""

    victim: PhysicalAddr
    #: (lpn, old address, new address) per migrated page.
    migrations: List[Tuple[int, PhysicalAddr, PhysicalAddr]] = field(
        default_factory=list
    )

    @property
    def pages_moved(self) -> int:
        return len(self.migrations)


class GreedyGcPolicy:
    """Selects victims greedily and applies the state mutation.

    ``collect_once`` performs the FTL state transition for a single victim
    and reports the physical work done; callers replay that work as timed
    operations on the victim's channel.
    """

    def __init__(self, gc_threshold: float = 0.25, soft_threshold: float = 0.35) -> None:
        if not 0.0 < gc_threshold <= soft_threshold < 1.0:
            raise ValueError(
                f"need 0 < gc_threshold <= soft_threshold < 1, got "
                f"{gc_threshold}/{soft_threshold}"
            )
        self.gc_threshold = gc_threshold
        self.soft_threshold = soft_threshold

    def needs_regular_gc(self, ftl: PageMappedFtl) -> bool:
        """Below the hard threshold: GC can no longer be delayed."""
        return ftl.free_block_ratio() < self.gc_threshold

    def wants_soft_gc(self, ftl: PageMappedFtl) -> bool:
        """Below the soft threshold: request GC, accepting a possible delay."""
        return ftl.free_block_ratio() < self.soft_threshold

    def collect_once(self, ftl: PageMappedFtl) -> Optional[GcResult]:
        """Collect the single best victim; ``None`` when nothing is stale."""
        victim = ftl.select_victim()
        if victim is None:
            return None
        result = GcResult(victim=victim)
        for lpn in ftl.victim_valid_lpns(victim):
            old, new = ftl.migrate_page(lpn)
            result.migrations.append((lpn, old, new))
        ftl.commit_erase(victim)
        return result

    def collect_until(
        self, ftl: PageMappedFtl, target_ratio: float, max_victims: int = 64
    ) -> List[GcResult]:
        """Collect victims until the free ratio recovers to ``target_ratio``.

        ``max_victims`` bounds runaway collection when the device is full of
        valid data (in which case GC cannot create free space).
        """
        results: List[GcResult] = []
        while ftl.free_block_ratio() < target_ratio and len(results) < max_victims:
            result = self.collect_once(ftl)
            if result is None:
                break
            results.append(result)
        return results

    def work_duration_us(self, result: GcResult, profile) -> float:
        """Channel-occupancy time for the physical work in ``result``."""
        page_kb = 4.0
        per_move = profile.read_latency(page_kb) + profile.program_latency(page_kb)
        return result.pages_moved * per_move + profile.erase_us

