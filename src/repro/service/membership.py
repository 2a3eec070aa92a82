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
2. while the plan is active, the old owner of a moving key stays its
   one authority, in both deployment shapes:

   * **reads** and scans go to :meth:`FleetController.read_owner` -- the
     old owner until the cutover;
   * **writes** run :func:`~repro.service.migration.forwarded_write`:
     applied at the old owner first (so an abort at any instant loses
     nothing), then **forwarded** to the new owner so the streamed copy
     can never go stale;

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
    #: Keys any attempt wrote at their destination (streamed or
    #: forwarded); an abort deletes them there, so no stale copy outlives
    #: the change that made it.
    copied: Set[str] = field(default_factory=set, repr=False)
    _starts: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._starts = [r.start for r in self.ranges]

    def moving_range_for_key(self, key: str) -> Optional[KeyRange]:
        """The moving range a kv ``key`` falls in, if any.  The label
        derivation must match the router's (``key:<key>``), which is why
        it lives here rather than at every call site."""
        point = self.old_ring.point_for(f"key:{key}")
        idx = bisect.bisect_right(self._starts, point) - 1
        if idx >= 0 and self.ranges[idx].contains(point):
            return self.ranges[idx]
        return None

    @property
    def moved_fraction(self) -> float:
        """Fraction of ring space this plan moves (~1/(N+1) for an add)."""
        return sum(r.span for r in self.ranges) / RING_SPACE


class FleetController:
    """Owns the current ring, the epoch, and at most one live migration.

    The controller is pure routing policy -- it never touches a socket or
    a bridge.  The router (or proxy) asks it two questions per request:

    * :meth:`read_owner` -- which single shard is *authoritative* for a
      key right now: every keyed read goes there, and scan results from
      anyone else are shadow copies;
    * :meth:`write_route` -- where to apply, and where to forward.

    and drives the lifecycle with :meth:`begin_add` / :meth:`begin_drain`
    -> :meth:`commit` | :meth:`abort`.
    """

    #: Counter names reported in the ``migration`` stats section
    #: (mirrored by ``schema.MIGRATION_FIELDS``).
    COUNTER_NAMES = (
        "keys_moved", "bytes_streamed", "batches", "write_forwards",
        "aborts", "cutovers", "cleanup_deletes", "racks_added",
        "racks_drained",
    )

    def __init__(self, ring: HashRing, epoch: int = 0) -> None:
        self.ring = ring
        self.epoch = int(epoch)
        self.plan: Optional[MigrationPlan] = None
        self.counters: Dict[str, int] = {name: 0 for name in
                                         self.COUNTER_NAMES}
        #: Keys forwarded during the current attempt; the stream must not
        #: clobber them with the older value it read from the source.
        self._forwarded: Set[str] = set()
        #: A key whose forward failed this attempt, failing the attempt.
        self._failed_forward: Optional[str] = None
        #: Keys with a stream put in flight to the destination.  The
        #: write path's forward step waits these out before issuing its
        #: own destination put, so the forwarded (fresher) value is
        #: deterministically the last writer.
        self._stream_puts: Dict[str, asyncio.Event] = {}

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

    def _new_attempt(self) -> None:
        self._forwarded.clear()
        self._failed_forward = None

    def begin_add(self, node: int) -> MigrationPlan:
        """Start admitting ``node``; returns the plan (ranges to stream)."""
        self._check_idle()
        node = int(node)
        if node in self.ring._nodes:
            raise MembershipError(f"rack {node} is already on the ring")
        new_ring = self.ring.with_node(node)
        ranges = tuple(HashRing.ranges_moving(self.ring, new_ring))
        self.plan = MigrationPlan("add", node, self.ring, new_ring, ranges)
        self._new_attempt()
        return self.plan

    def begin_drain(self, node: int) -> MigrationPlan:
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
        self.plan = MigrationPlan("drain", node, self.ring, new_ring, ranges)
        self._new_attempt()
        return self.plan

    def retry(self) -> MigrationPlan:
        """Roll the active plan into its next attempt after a mid-stream
        failure.  The new attempt re-streams every key it does not see
        forwarded again, overwriting whatever the last one left behind."""
        if self.plan is None:
            raise MembershipError("no migration in flight to retry")
        self.counters["aborts"] += 1
        self.plan.attempt += 1
        self._new_attempt()
        return self.plan

    def abort(self) -> None:
        """Discard the active plan; the old ring keeps ruling.  Nothing
        is lost: writes were always applied to the old owner first."""
        if self.plan is None:
            return
        self.counters["aborts"] += 1
        self.plan = None
        self._new_attempt()

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
        self.plan = None
        self._new_attempt()
        return self.epoch

    # -------------------------------------------------------------- routing

    def note_forwarded(self, key: str) -> None:
        """Record that ``key`` is being forwarded during the active plan."""
        if self.plan is not None:
            self._forwarded.add(key)
            self.plan.copied.add(key)

    def is_forwarded(self, key: str) -> bool:
        return key in self._forwarded

    def forward_failed(self, key: str) -> None:
        """A forward of ``key`` did not reach the destination."""
        if self.plan is not None:
            self._failed_forward = key

    def check_forwards(self) -> None:
        """Raise if a forward failed this attempt -- its destination
        copy may be stale, so the attempt must not cut over."""
        if self._failed_forward is not None:
            raise MembershipError(
                f"the forwarded write of {self._failed_forward!r} did not "
                f"reach the destination"
            )

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

    def write_route(self, key: str) -> Tuple[int, Optional[int]]:
        """``(primary, forward)`` shards for a keyed write (raw kv key):
        the authoritative (old) owner, which acks first so an abort at
        any moment leaves every acked write durable, and in a migration
        window the new owner, where
        :func:`~repro.service.migration.forwarded_write` chains it."""
        plan = self.plan
        rng = None if plan is None else plan.moving_range_for_key(key)
        if rng is None:
            return self.ring.node_for(f"key:{key}"), None
        return rng.src, rng.dst

    def read_owner(self, key: str) -> int:
        """The single shard whose copy of ``key`` is authoritative right
        now -- the old owner until commit, the ring owner after.  Scan
        merges drop items reported by anyone else (shadow copies)."""
        plan = self.plan
        rng = None if plan is None else plan.moving_range_for_key(key)
        return self.ring.node_for(f"key:{key}") if rng is None else rng.src

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
