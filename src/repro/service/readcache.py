"""Sharded DRAM read-through cache with per-tenant capacity shares.

RackBlox's own DRAM tier absorbs writes in front of flash; this is the
read-side analogue for the serving stack: zipfian-hot KV ``get``\\ s are
answered from front-end DRAM and never touch the simulated vSSD path.
Design points:

* **Sharded.**  Keys hash (crc32, stable across processes -- never
  ``hash()``) onto ``segments`` independent segments, each with its own
  LRU state and invalidation sequence number, so invalidation cost and
  fill races stay local.
* **Per-tenant capacity shares.**  Each segment keeps one LRU per
  tenant; an entry is charged against the budget of the tenant that
  *filled* it (proportional to its spec's ``cache_share``), but lookup
  is global by key -- tenants share one keyspace, so any tenant's hit
  can be served by any tenant's entry.  A zero-share tenant reads
  through without ever filling.
* **Write-through invalidation, race-proof fills.**  ``lookup`` hands
  back a fill *token* capturing the segment's invalidation sequence;
  ``fill`` applies only if the sequence is unchanged.  Any write
  (including a migration stream put or a forwarded write, which bypass
  the normal submit path) calls :meth:`invalidate` on completion,
  bumping the sequence -- so a read that raced the write can never
  install the stale value it saw.  The cache can serve stale bytes
  **never**, at the cost of occasionally dropping a racing fill.
* **Epoch-fenced.**  Fleet membership changes call :meth:`fence` with
  the new routing epoch: every in-flight fill drops and entries from
  older epochs are lazily treated as misses, so a key whose owner just
  moved cannot be served from a pre-migration snapshot.

Only KV ``get`` values are cached (raw pair reads return synthesized
page latencies, not bytes worth caching); misses are not negatively
cached.
"""

import zlib
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

#: Fill token meaning "do not fill" (zero-share tenant or cache off).
NO_FILL = (-1, -1)


class _Segment:
    __slots__ = ("lrus", "owner", "seq")

    def __init__(self):
        # tenant -> OrderedDict[key -> (value, epoch)]; LRU order is
        # per owning tenant so one tenant's scan cannot evict another's
        # working set.
        self.lrus: Dict[str, OrderedDict] = {}
        self.owner: Dict[str, str] = {}
        self.seq = 0


class ReadCache:
    """A segmented LRU read-through cache with per-tenant budgets.

    ``capacity`` is counted in entries; ``shares`` maps tenant name to
    a relative share weight (a missing tenant gets the ``default``
    share if present, else 1.0).  A tenant's budget is its share of the
    capacity, spread evenly across segments (at least one entry per
    segment so tiny caches still function).
    """

    def __init__(self, capacity: int, *, shares: Optional[Mapping[str, float]] = None,
                 segments: int = 8):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        self.capacity = int(capacity)
        self.segments = int(segments)
        self._shares = dict(shares or {})
        total = sum(v for v in self._shares.values() if v > 0) or 1.0
        self._budget_per_segment = {
            name: max(1, int(capacity * share / total / segments))
            for name, share in self._shares.items() if share > 0
        }
        self._default_budget = max(1, int(capacity / total / segments))
        self._segs = [_Segment() for _ in range(self.segments)]
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.fill_races = 0
        self.invalidations = 0
        self.evictions = 0
        self.entries = 0

    def _segment(self, key: str) -> Tuple[int, _Segment]:
        index = zlib.crc32(key.encode("utf-8")) % self.segments
        return index, self._segs[index]

    def _budget(self, tenant: str) -> int:
        if tenant in self._budget_per_segment:
            return self._budget_per_segment[tenant]
        if tenant in self._shares:        # declared with share 0: no budget
            return 0
        return self._default_budget

    # -- read path -----------------------------------------------------

    def lookup(self, key: str, tenant: str) -> Tuple[bool, Any, Tuple[int, int]]:
        """Probe the cache; returns ``(hit, value, fill_token)``.

        On a miss the caller reads through and later calls
        :meth:`fill` with the token; a token is only valid while no
        invalidation has touched the key's segment since the probe.
        """
        if self.capacity == 0:
            return False, None, NO_FILL
        index, seg = self._segment(key)
        owner = seg.owner.get(key)
        if owner is not None:
            lru = seg.lrus[owner]
            value, epoch = lru[key]
            if epoch == self.epoch:
                lru.move_to_end(key)
                self.hits += 1
                return True, value, NO_FILL
            # Stale epoch: the fleet changed under this entry; purge it.
            del lru[key]
            del seg.owner[key]
            self.entries -= 1
            self.invalidations += 1
        self.misses += 1
        if self._budget(tenant) == 0:
            return False, None, NO_FILL
        return False, None, (index, seg.seq)

    def fill(self, key: str, value: Any, tenant: str,
             token: Tuple[int, int]) -> bool:
        """Install a read-through result, unless the token went stale."""
        if token == NO_FILL or self.capacity == 0:
            return False
        index, seq = token
        seg = self._segs[index]
        if seg.seq != seq:
            self.fill_races += 1
            return False
        budget = self._budget(tenant)
        if budget == 0:
            return False
        prior = seg.owner.get(key)
        if prior is not None:
            del seg.lrus[prior][key]
            self.entries -= 1
        lru = seg.lrus.setdefault(tenant, OrderedDict())
        lru[key] = (value, self.epoch)
        lru.move_to_end(key)
        seg.owner[key] = tenant
        self.entries += 1
        self.fills += 1
        while len(lru) > budget:
            evicted, _ = lru.popitem(last=False)
            del seg.owner[evicted]
            self.entries -= 1
            self.evictions += 1
        return True

    # -- write path ----------------------------------------------------

    def invalidate(self, key: str) -> None:
        """A write to ``key`` completed: purge it and fence racing fills."""
        if self.capacity == 0:
            return
        _, seg = self._segment(key)
        seg.seq += 1
        owner = seg.owner.pop(key, None)
        if owner is not None:
            del seg.lrus[owner][key]
            self.entries -= 1
            self.invalidations += 1

    def fence(self, epoch: int) -> None:
        """The routing epoch moved: drop in-flight fills, stale old entries.

        Old-epoch entries are purged lazily on their next lookup rather
        than eagerly swept -- a fence is O(segments), not O(entries).
        """
        self.epoch = epoch
        for seg in self._segs:
            seg.seq += 1

    # -- stats ---------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_section(self) -> Dict[str, float]:
        """The ``readcache`` stats section (flat numeric map)."""
        return {
            "capacity": float(self.capacity),
            "segments": float(self.segments),
            "entries": float(self.entries),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": float(self.hit_rate()),
            "fills": float(self.fills),
            "fill_races": float(self.fill_races),
            "invalidations": float(self.invalidations),
            "evictions": float(self.evictions),
            "epoch": float(self.epoch),
        }
