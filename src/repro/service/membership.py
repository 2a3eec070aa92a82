"""Fleet membership: epoch-stamped ring versions and live migration state.

The serving fleet used to be frozen at ``serve`` time -- the
:class:`~repro.service.shard.HashRing` over N rack shards was built once,
so growing past N racks (or draining a failing one) meant a restart and a
cold fleet.  This module is the control plane that lifts that limit: a
:class:`FleetController` owns the *current* ring plus a monotonically
increasing **epoch**, and walks one membership change at a time through a
:class:`MigrationPlan`:

1. ``begin_add(node)`` / ``begin_drain(node)`` diff the old ring against
   the candidate ring with :meth:`HashRing.ranges_moving` -- the exact
   slices of ring space (~``1/(N+1)`` of it for a single add) that change
   owner;
2. while the plan is active, every key route consults the plan:

   * **writes** are applied to the *old* owner first (it stays fully
     authoritative, so an abort at any instant loses nothing), then
     **forwarded** to the new owner so the streamed copy can never go
     stale;
   * **reads** are served dual: new owner first, falling back to the old
     owner on a miss, so freshly-moved keys are cheap and not-yet-moved
     keys still resolve.  If a previous attempt at the same change was
     aborted (the destination may hold stale shadows), reads pin to the
     old owner instead;

3. a :class:`~repro.service.migration.MigrationStream` copies the cold
   keys over (skipping anything the write path already forwarded);
4. ``commit()`` installs the new ring and bumps the epoch -- the single
   atomic flip the :class:`~repro.service.router.ShardRouter` and
   :class:`~repro.service.router.ShardProxy` observe.  Clients that
   pinned an epoch get ``WRONG_SHARD`` and refresh; ``abort()`` discards
   the plan and the old ring simply keeps ruling.

This mirrors RackBlox's control-plane state synchronisation: membership
is coordinator-driven, versioned, and changes visibility in one step
rather than leaking partially-applied views to the data plane.
"""

import asyncio
import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.service.shard import RING_SPACE, HashRing, KeyRange

#: Plan phases, in order.
PHASE_STREAMING = "streaming"
PHASE_IDLE = "idle"


class MembershipError(ReproError):
    """A fleet membership change could not proceed."""


class MembershipBusy(MembershipError):
    """A membership change is already in flight (one at a time)."""


@dataclass
class MigrationPlan:
    """One membership change in flight: the ring diff plus its state."""

    kind: str                     # "add" | "drain"
    node: int                     # the rack joining or leaving
    old_ring: HashRing            # authoritative until commit
    new_ring: HashRing            # installed at commit
    ranges: Tuple[KeyRange, ...]  # sorted, non-overlapping
    attempt: int = 1
    #: True when the destination may hold stale shadow copies from an
    #: earlier aborted attempt -- reads then pin to the old owner.
    tainted: bool = False
    _starts: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._starts = [r.start for r in self.ranges]

    def moving_range_for(self, point: int) -> Optional[KeyRange]:
        """The moving range containing ``point``, if any."""
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx >= 0 and self.ranges[idx].contains(point):
            return self.ranges[idx]
        return None

    def moving_range_for_key(self, key: str) -> Optional[KeyRange]:
        """The moving range a kv ``key`` falls in, if any.  The label
        derivation must match the router's (``key:<key>``), which is why
        it lives here rather than at every call site."""
        return self.moving_range_for(self.old_ring.point_for(f"key:{key}"))

    @property
    def moved_fraction(self) -> float:
        """Fraction of ring space this plan moves (~1/(N+1) for an add)."""
        return sum(r.span for r in self.ranges) / RING_SPACE


class FleetController:
    """Owns the current ring, the epoch, and at most one live migration.

    The controller is pure routing policy -- it never touches a socket or
    a bridge.  The router (or proxy) asks it three questions per request:

    * :meth:`read_route` -- where to read first, and where to fall back;
    * :meth:`write_route` -- where to apply, and where to forward;
    * :meth:`read_owner` -- which single shard is *authoritative* for a
      key right now (scan results from anyone else are shadow copies).

    and drives the lifecycle with :meth:`begin_add` / :meth:`begin_drain`
    -> :meth:`commit` | :meth:`abort`.
    """

    #: Counter names reported in the ``migration`` stats section
    #: (mirrored by ``schema.MIGRATION_FIELDS``).
    COUNTER_NAMES = (
        "keys_moved", "bytes_streamed", "batches", "dual_read_fallbacks",
        "write_forwards", "aborts", "cutovers", "cleanup_deletes",
        "racks_added", "racks_drained",
    )

    def __init__(self, ring: HashRing, epoch: int = 0) -> None:
        self.ring = ring
        self.epoch = int(epoch)
        self.plan: Optional[MigrationPlan] = None
        self.counters: Dict[str, int] = {name: 0 for name in
                                         self.COUNTER_NAMES}
        #: Keys dual-written while a plan is active; the stream must not
        #: clobber them with the older value it read from the source.
        self._forwarded: Set[str] = set()
        #: Keys with a stream put in flight to the destination.  The
        #: write path's forward step waits these out before issuing its
        #: own destination put, so the forwarded (fresher) value is
        #: deterministically the last writer.
        self._stream_puts: Dict[str, asyncio.Event] = {}
        #: Nodes whose last *drain* attempt aborted: the surviving
        #: destinations may hold stale shadows, so the next drain of the
        #: same node starts tainted.  (An aborted *add* destroys the
        #: joining shard, so adds only taint in-call retries.)
        self._tainted_nodes: Set[int] = set()

    # ------------------------------------------------------------ lifecycle

    @property
    def migrating(self) -> bool:
        return self.plan is not None

    def _check_idle(self) -> None:
        if self.plan is not None:
            raise MembershipBusy(
                f"a membership change is already in flight "
                f"({self.plan.kind} of rack {self.plan.node}, attempt "
                f"{self.plan.attempt}); one at a time"
            )

    def begin_add(self, node: int, *, tainted: bool = False) -> MigrationPlan:
        """Start admitting ``node``; returns the plan (ranges to stream)."""
        self._check_idle()
        node = int(node)
        if node in self.ring._nodes:
            raise MembershipError(f"rack {node} is already on the ring")
        new_ring = self.ring.with_node(node)
        ranges = tuple(HashRing.ranges_moving(self.ring, new_ring))
        self.plan = MigrationPlan("add", node, self.ring, new_ring, ranges,
                                  tainted=tainted)
        self._forwarded.clear()
        return self.plan

    def begin_drain(self, node: int, *,
                    tainted: bool = False) -> MigrationPlan:
        """Start draining ``node``; returns the plan (ranges to stream)."""
        self._check_idle()
        node = int(node)
        if node not in self.ring._nodes:
            raise MembershipError(f"rack {node} is not on the ring")
        if len(self.ring) < 2:
            raise MembershipError(
                "cannot drain the last rack; the fleet would be empty"
            )
        new_ring = self.ring.without_node(node)
        ranges = tuple(HashRing.ranges_moving(self.ring, new_ring))
        self.plan = MigrationPlan(
            "drain", node, self.ring, new_ring, ranges,
            tainted=tainted or node in self._tainted_nodes,
        )
        self._forwarded.clear()
        return self.plan

    def retry(self) -> MigrationPlan:
        """Roll the active plan into its next attempt after a mid-stream
        failure.  The destination kept whatever partially streamed, so
        the new attempt is tainted: reads pin to the old owner."""
        if self.plan is None:
            raise MembershipError("no migration in flight to retry")
        self.counters["aborts"] += 1
        self.plan.attempt += 1
        self.plan.tainted = True
        self._forwarded.clear()
        return self.plan

    def abort(self) -> None:
        """Discard the active plan; the old ring keeps ruling.  Nothing
        is lost: writes were always applied to the old owner first."""
        if self.plan is None:
            return
        self.counters["aborts"] += 1
        if self.plan.kind == "drain":
            # The surviving destinations keep whatever was streamed;
            # a later drain of the same node must not dual-read it.
            self._tainted_nodes.add(self.plan.node)
        self.plan = None
        self._forwarded.clear()

    def commit(self) -> int:
        """Install the new ring, bump the epoch, end the plan.  This is
        the one atomic cutover every routing view observes."""
        if self.plan is None:
            raise MembershipError("no migration in flight to commit")
        plan = self.plan
        self.ring = plan.new_ring
        self.epoch += 1
        self.counters["cutovers"] += len(plan.ranges)
        if plan.kind == "add":
            self.counters["racks_added"] += 1
        else:
            self.counters["racks_drained"] += 1
            self._tainted_nodes.discard(plan.node)
        self.plan = None
        self._forwarded.clear()
        return self.epoch

    # -------------------------------------------------------------- routing

    def note_forwarded(self, key: str) -> None:
        """Record that ``key`` was dual-written during the active plan."""
        if self.plan is not None:
            self._forwarded.add(key)

    def is_forwarded(self, key: str) -> bool:
        return key in self._forwarded

    def stream_put_begin(self, key: str) -> asyncio.Event:
        """The stream is about to put ``key`` at the destination."""
        event = asyncio.Event()
        self._stream_puts[key] = event
        return event

    def stream_put_end(self, key: str, event: asyncio.Event) -> None:
        event.set()
        if self._stream_puts.get(key) is event:
            del self._stream_puts[key]

    async def await_stream_put(self, key: str) -> None:
        """Forward-path ordering barrier: wait out any in-flight stream
        put for ``key`` so the forwarded value lands last."""
        event = self._stream_puts.get(key)
        if event is not None:
            await event.wait()

    def read_route(self, key: str) -> Tuple[int, Optional[int]]:
        """``(first, fallback)`` shards for a keyed read (raw kv key).

        Outside a migration window ``fallback`` is ``None``.  Inside it,
        keys in a moving range read the *new* owner first and fall back
        to the old owner on a miss -- unless the plan is tainted (a
        prior aborted attempt may have left stale shadows at the
        destination), in which case reads pin to the old owner, except
        for keys the write path has since re-forwarded (those are
        provably fresh at the destination).
        """
        owner = self.ring.node_for(f"key:{key}")
        plan = self.plan
        if plan is None:
            return owner, None
        rng = plan.moving_range_for_key(key)
        if rng is None:
            return owner, None
        if plan.tainted and not self.is_forwarded(key):
            return rng.src, None
        return rng.dst, rng.src

    def write_route(self, key: str) -> Tuple[int, Optional[int]]:
        """``(primary, forward)`` shards for a keyed write (raw kv key).

        The primary is always the currently authoritative (old) owner --
        it must ack before the client does, so an abort at any moment
        leaves every acked write durable.  ``forward`` is the new owner
        during a migration window: the write is chained there after the
        primary acks, keeping the streamed copy from ever going stale.
        """
        owner = self.ring.node_for(f"key:{key}")
        plan = self.plan
        if plan is None:
            return owner, None
        rng = plan.moving_range_for_key(key)
        if rng is None:
            return owner, None
        return rng.src, rng.dst

    def read_owner(self, key: str) -> int:
        """The single shard whose copy of ``key`` is authoritative right
        now -- the old owner until commit, the ring owner after.  Scan
        merges drop items reported by anyone else (shadow copies)."""
        owner = self.ring.node_for(f"key:{key}")
        plan = self.plan
        if plan is None:
            return owner
        rng = plan.moving_range_for_key(key)
        return owner if rng is None else rng.src

    # ------------------------------------------------------------ reporting

    def status(self) -> Dict[str, object]:
        """The operator-facing fleet view (CLI ``fleet status``)."""
        out: Dict[str, object] = {
            "epoch": self.epoch,
            "racks": self.ring.nodes,
            "migrating": self.migrating,
            "phase": PHASE_STREAMING if self.migrating else PHASE_IDLE,
            "counters": dict(self.counters),
        }
        if self.plan is not None:
            out["change"] = {
                "kind": self.plan.kind,
                "rack": self.plan.node,
                "attempt": self.plan.attempt,
                "tainted": self.plan.tainted,
                "ranges": len(self.plan.ranges),
                "moved_fraction": round(self.plan.moved_fraction, 6),
            }
        return out

    def stats_section(self) -> Dict[str, float]:
        """The ``migration`` section of the stats payload (all floats,
        per ``schema.MIGRATION_FIELDS``)."""
        out = {name: float(value) for name, value in self.counters.items()}
        out["epoch"] = float(self.epoch)
        out["active"] = 1.0 if self.migrating else 0.0
        return out
