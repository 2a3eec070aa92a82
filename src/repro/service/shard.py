"""Shards: a consistent-hash ring and the per-rack unit it places onto.

The scale-out front-end (:mod:`repro.service.router`) is a classic
front-end/back-end split: N independent racks, each its own simulator,
switch, and admission controller, with placement decided by a **seeded
consistent-hash ring with virtual nodes**.  Seeded, because placement
must agree across processes and across restarts -- the ring hashes with
BLAKE2 over an explicit seed, never Python's per-process ``hash()``.

Virtual nodes smooth the split: with ``vnodes`` points per rack the
largest shard owns close to ``1/N`` of the key space, and adding a rack
steals roughly ``1/(N+1)`` of the keys from the incumbents instead of
half of one unlucky rack (the rebalance property is pinned by
``tests/test_ring.py``).
"""

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.service.admission import AdmissionController
from repro.service.bridge import SimTimeBridge

#: Ring points per rack.  64 keeps the max/min shard-ownership ratio
#: under ~1.35 for small N while the ring stays a few hundred entries.
DEFAULT_VNODES = 64

#: Ring seed: placement is part of the deployment's identity, so the
#: default is fixed and explicit rather than derived from anything.
DEFAULT_RING_SEED = 17

#: The ring's position space: BLAKE2 digests truncated to 8 bytes.
RING_SPACE = 1 << 64


@dataclass(frozen=True)
class KeyRange:
    """One contiguous, non-wrapping slice of ring space changing owner.

    ``start`` is inclusive, ``end`` exclusive; wraparound slices are
    split before construction so ``start < end`` always holds.  ``src``
    is the owner under the old ring, ``dst`` under the new one -- the
    shard-to-shard move a membership change obliges.
    """

    start: int
    end: int
    src: int
    dst: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= RING_SPACE:
            raise ConfigError(
                f"bad key range [{self.start}, {self.end})"
            )
        if self.src == self.dst:
            raise ConfigError(
                f"range [{self.start}, {self.end}) does not move "
                f"(src == dst == {self.src})"
            )

    def contains(self, point: int) -> bool:
        return self.start <= point < self.end

    @property
    def span(self) -> int:
        return self.end - self.start


class HashRing:
    """A seeded consistent-hash ring over integer node ids."""

    def __init__(self, nodes: Iterable[int] = (), *,
                 vnodes: int = DEFAULT_VNODES,
                 seed: int = DEFAULT_RING_SEED) -> None:
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._points: List[int] = []          # sorted ring positions
        self._owners: List[int] = []          # node owning each position
        self._nodes: Dict[int, List[int]] = {}  # node -> its positions
        for node in nodes:
            self.add_node(node)

    # ----------------------------------------------------------- membership

    def _point(self, label: str) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def add_node(self, node: int) -> None:
        node = int(node)
        if node in self._nodes:
            raise ConfigError(f"node {node} is already on the ring")
        positions = []
        for replica in range(self.vnodes):
            point = self._point(f"node:{node}:{replica}")
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)
            positions.append(point)
        self._nodes[node] = positions

    def remove_node(self, node: int) -> None:
        node = int(node)
        positions = self._nodes.pop(node, None)
        if positions is None:
            raise ConfigError(f"node {node} is not on the ring")
        for point in positions:
            # Positions can collide across nodes in principle; remove the
            # entry that belongs to *this* node.
            idx = bisect.bisect_left(self._points, point)
            while self._owners[idx] != node or self._points[idx] != point:
                idx += 1
            del self._points[idx]
            del self._owners[idx]

    @property
    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def copy(self) -> "HashRing":
        """An independent ring with the same seed, vnodes, and members."""
        return HashRing(self.nodes, vnodes=self.vnodes, seed=self.seed)

    def with_node(self, node: int) -> "HashRing":
        """A copy of this ring after ``node`` joins (self is untouched)."""
        ring = self.copy()
        ring.add_node(node)
        return ring

    def without_node(self, node: int) -> "HashRing":
        """A copy of this ring after ``node`` leaves (self is untouched)."""
        ring = self.copy()
        ring.remove_node(node)
        return ring

    # -------------------------------------------------------------- lookup

    def node_for(self, key: str) -> int:
        """The node owning ``key``: first ring point at or after its hash."""
        if not self._nodes:
            raise ConfigError("the ring has no nodes")
        point = self._point(f"key:{key}")
        idx = bisect.bisect(self._points, point)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def preference(self, key: str, count: int = 2) -> List[int]:
        """The first ``count`` *distinct* nodes walking the ring from
        ``key`` -- position 0 is the owner, position 1 the cross-rack
        fallback, and so on (Dynamo's preference list)."""
        if not self._nodes:
            raise ConfigError("the ring has no nodes")
        count = min(count, len(self._nodes))
        point = self._point(f"key:{key}")
        idx = bisect.bisect(self._points, point)
        out: List[int] = []
        total = len(self._points)
        for step in range(total):
            owner = self._owners[(idx + step) % total]
            if owner not in out:
                out.append(owner)
                if len(out) == count:
                    break
        return out

    def point_for(self, key: str) -> int:
        """The ring position ``key`` hashes to -- the value
        :meth:`node_for` buckets, exposed so migration plans can test a
        key against a :class:`KeyRange` without re-deriving the hash."""
        return self._point(f"key:{key}")

    def owner_of_point(self, point: int) -> int:
        """The node owning an arbitrary ring position (first ring point
        strictly after ``point``, wrapping)."""
        if not self._nodes:
            raise ConfigError("the ring has no nodes")
        idx = bisect.bisect(self._points, point)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    # ---------------------------------------------------------- rebalancing

    @staticmethod
    def ranges_moving(old_ring: "HashRing",
                      new_ring: "HashRing") -> List["KeyRange"]:
        """The exact slices of ring space that change owner between two
        rings -- the work a membership change obliges.

        Both rings must share ``seed`` and ``vnodes`` (otherwise every
        point moves and the diff is meaningless).  The result is sorted
        by ``start``, non-overlapping, with adjacent same-``(src, dst)``
        slices coalesced; a key moves between the rings **iff** its
        :meth:`point_for` position falls inside one of the returned
        ranges.  Summing ``span`` over the result gives the moved
        fraction of ring space -- ~``1/(N+1)`` for a single add, which
        the rebalance property tests pin.
        """
        if old_ring.seed != new_ring.seed:
            raise ConfigError(
                f"rings disagree on seed ({old_ring.seed} vs "
                f"{new_ring.seed}); the movement diff is meaningless"
            )
        if old_ring.vnodes != new_ring.vnodes:
            raise ConfigError(
                f"rings disagree on vnodes ({old_ring.vnodes} vs "
                f"{new_ring.vnodes}); the movement diff is meaningless"
            )
        if not old_ring._nodes or not new_ring._nodes:
            raise ConfigError("cannot diff against an empty ring")
        boundaries = sorted(set(old_ring._points) | set(new_ring._points))
        # Ownership is constant on [b_j, b_{j+1}) -- no ring point of
        # either ring lies strictly inside -- so one representative
        # lookup per segment settles it.  The wrap segment
        # [b_last, 2^64) + [0, b_0) shares a single owner pair too.
        pieces: List[Tuple[int, int, int, int]] = []
        for j in range(len(boundaries) - 1):
            left, right = boundaries[j], boundaries[j + 1]
            src = old_ring.owner_of_point(left)
            dst = new_ring.owner_of_point(left)
            if src != dst:
                pieces.append((left, right, src, dst))
        last, first = boundaries[-1], boundaries[0]
        src = old_ring.owner_of_point(last)
        dst = new_ring.owner_of_point(last)
        if src != dst:
            if last < RING_SPACE:
                pieces.append((last, RING_SPACE, src, dst))
            if first > 0:
                pieces.insert(0, (0, first, src, dst))
        pieces.sort()
        merged: List[Tuple[int, int, int, int]] = []
        for piece in pieces:
            if merged and merged[-1][1] == piece[0] and \
                    merged[-1][2:] == piece[2:]:
                merged[-1] = (merged[-1][0], piece[1], piece[2], piece[3])
            else:
                merged.append(piece)
        return [KeyRange(*piece) for piece in merged]


class RackShard:
    """One rack behind the router: bridge + its own admission control.

    Each shard is a complete single-rack serving stack minus the TCP
    listener -- its own simulator, its own pump, its own queue-depth cap
    and token buckets.  Admission being per-shard is what makes a
    whole-rack outage shed *only* that shard's traffic instead of
    dragging the global cap down with zombie in-flight requests.
    """

    def __init__(self, index: int, bridge: SimTimeBridge,
                 admission: Optional[AdmissionController] = None) -> None:
        if index < 0:
            raise ConfigError(f"shard index must be >= 0, got {index}")
        self.index = index
        self.bridge = bridge
        self.admission = admission if admission is not None else (
            AdmissionController()
        )
        #: Raw reads this shard served because the owner's copies were
        #: both collecting (the receiving side of a cross-rack redirect).
        self.redirected_in = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        await self.bridge.start()

    async def stop(self, drain: bool = True,
                   drain_timeout_s: float = 10.0) -> None:
        await self.bridge.stop(drain=drain, drain_timeout_s=drain_timeout_s)

    @property
    def inflight(self) -> int:
        return self.bridge.inflight

    @property
    def num_pairs(self) -> int:
        return len(self.bridge.rack.pairs)

    # -------------------------------------------------------------- GC view

    def gc_busy_pairs(self) -> Tuple[bool, ...]:
        """Per local pair: are *both* in-rack copies collecting right now?

        This is the truth the shard's own ToR switch holds (two replica
        table reads, one per copy); the router sees it only after the
        inter-switch sync delay.
        """
        switch = self.bridge.rack.switch
        out = []
        for pair in self.bridge.rack.pairs:
            primary_busy = switch.replica_table.gc_status(
                pair.primary.vssd_id) == 1
            replica_busy = switch.destination_table.gc_status(
                pair.replica.vssd_id) == 1
            out.append(primary_busy and replica_busy)
        return tuple(out)

    # ------------------------------------------------------------ reporting

    def stats_section(self) -> Dict[str, object]:
        """This shard's slice of the sharded stats payload (see
        :mod:`repro.service.schema`)."""
        payload = self.bridge.stats_payload()
        payload["admission"] = self.admission.stats()
        payload["redirected_in"] = float(self.redirected_in)
        return payload
