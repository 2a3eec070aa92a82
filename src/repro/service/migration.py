"""The data mover for fleet membership changes.

:class:`MigrationStream` copies every key a
:class:`~repro.service.membership.MigrationPlan` obliges to move from its
old owner to its new one, while the fleet keeps serving.  It is
deliberately dumb about transport: the caller hands it three async
endpoints --

* ``scan(src, start, count)`` -> ``[(key, value), ...]`` (key-ordered,
  at most ``count`` items with key >= ``start``),
* ``put(dst, key, value)``,
* ``delete(src, key)`` (optional; post-commit shadow cleanup)

-- which the in-proc router binds straight to the shards' sim-time
bridges, and the process-mode proxy binds to wire-level
:class:`~repro.service.client.ServiceClient` calls against the backend
racks.  Either way the stream rides the same serving path as foreground
traffic, so its load is *visible* to admission and the simulator rather
than teleporting data behind the fleet's back.

Two properties keep it correct under live load:

* **bounded + throttled**: keys move in ``batch_size`` chunks with an
  asyncio pause between batches, so foreground p99 survives the copy;
* **forward-aware**: a key the write path forwarded after the stream
  read it would be *clobbered* by applying the stream's older value, so
  forwarded keys are skipped at apply time (the forward already
  delivered the freshest value to the destination).

:func:`forwarded_write` is that write path, one routine for both
shapes.  Any endpoint failure (a rack crash mid-migration surfaces here
as a timeout or connection error), or a forward that did not land,
aborts the run with the partial tally attached.
:func:`run_membership_change` is the one driver around the stream --
retry with back-off, then abort (deleting what reached the destinations)
or commit, fence the read cache, clean up, report -- that both
deployment shapes call with their own endpoints.
"""

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.service.client import ServiceError
from repro.service.membership import (
    FleetController,
    MembershipError,
    MigrationPlan,
)
from repro.service.readcache import ReadCache

#: Keys copied per scan page / applied per burst.
DEFAULT_BATCH_SIZE = 64

#: Wall-clock pause between batches; the foreground's breathing room.
DEFAULT_PAUSE_S = 0.002

ScanFn = Callable[[int, str, int], Awaitable[List[Tuple[str, str]]]]
PutFn = Callable[[int, str, str], Awaitable[None]]
DeleteFn = Callable[[int, str], Awaitable[None]]
CloseFn = Callable[[], Awaitable[None]]
#: Builds one attempt's ``(scan, put, delete, close)``; called afresh
#: per attempt so a crashed peer gets a new dial.
EndpointFactory = Callable[[], Tuple[ScanFn, PutFn, DeleteFn, CloseFn]]
#: Applies one client write at a node: the response payload, or raises.
ApplyFn = Callable[[int], Awaitable[Dict[str, Any]]]
#: How a stream endpoint or a forwarded write's leg fails.
_ENDPOINT_ERRORS = (asyncio.TimeoutError, ConnectionError, OSError,
                    ReproError, ServiceError)


class MigrationStreamError(ReproError):
    """The stream could not finish; ``report`` holds the partial tally."""

    def __init__(self, message: str, report: "StreamReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass
class StreamReport:
    """What one stream run (or attempt) actually moved."""

    keys_moved: int = 0
    bytes_streamed: int = 0
    batches: int = 0
    skipped_forwarded: int = 0
    sources_drained: int = 0
    #: ``(src, key)`` pairs that were copied -- the post-commit shadow
    #: cleanup list.
    moved: List[Tuple[int, str]] = field(default_factory=list)


class MigrationStream:
    """Copies a plan's moving keys source-by-source, page-by-page."""

    def __init__(self, controller: FleetController, plan: MigrationPlan, *,
                 scan: ScanFn, put: PutFn, delete: Optional[DeleteFn] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 pause_s: float = DEFAULT_PAUSE_S) -> None:
        if batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {batch_size}")
        self.controller = controller
        self.plan = plan
        self._scan = scan
        self._put = put
        self._delete = delete
        self.batch_size = batch_size
        self.pause_s = max(0.0, pause_s)

    async def run(self) -> StreamReport:
        """Stream every moving key; raises :class:`MigrationStreamError`
        wrapping the first endpoint failure."""
        report = StreamReport()
        counters = self.controller.counters
        sources = sorted({rng.src for rng in self.plan.ranges})
        try:
            for src in sources:
                await self._stream_source(src, report)
                report.sources_drained += 1
            # Nothing may suspend between this check and the cutover.
            self.controller.check_forwards()
        except _ENDPOINT_ERRORS as exc:
            raise MigrationStreamError(
                f"migration stream failed after {report.keys_moved} keys "
                f"({type(exc).__name__}: {exc})", report
            ) from exc
        finally:
            counters["keys_moved"] += report.keys_moved
            counters["bytes_streamed"] += report.bytes_streamed
            counters["batches"] += report.batches
        return report

    async def _stream_source(self, src: int, report: StreamReport) -> None:
        plan = self.plan
        start = ""
        while True:
            items = await self._scan(src, start, self.batch_size)
            if not items:
                return
            moving = []
            for key, value in items:
                rng = plan.moving_range_for_key(key)
                if rng is not None and rng.src == src:
                    moving.append((key, value))
            if moving:
                await asyncio.gather(*(
                    self._apply(src, key, value, report)
                    for key, value in moving
                ))
                report.batches += 1
            # Resume strictly after the last key this page returned.
            start = items[-1][0] + "\x00"
            if len(items) < self.batch_size:
                return
            if self.pause_s:
                await asyncio.sleep(self.pause_s)

    async def _apply(self, src: int, key: str, value: str,
                     report: StreamReport) -> None:
        rng = self.plan.moving_range_for_key(key)
        assert rng is not None
        if self.controller.is_forwarded(key):
            # The write path already delivered a fresher value to the
            # destination; applying ours would clobber it.
            report.skipped_forwarded += 1
            return
        # Register the in-flight put so a concurrent forwarded write to
        # the same key orders itself *after* us at the destination.
        token = self.controller.stream_put_begin(key)
        self.plan.copied.add(key)
        try:
            await self._put(rng.dst, key, value)
        finally:
            self.controller.stream_put_end(key, token)
        report.keys_moved += 1
        report.bytes_streamed += len(key.encode("utf-8")) + \
            len(str(value).encode("utf-8"))
        report.moved.append((src, key))

    async def cleanup(self, copies: List[Tuple[int, str]]) -> int:
        """Delete ``(node, key)`` copies nobody reads any more: moved
        keys' shadows at their old owners after an add, or what an
        aborted change left at its destinations.  Best-effort; returns
        the number deleted."""
        if self._delete is None:
            return 0
        deleted = 0
        for offset in range(0, len(copies), self.batch_size):
            batch = copies[offset:offset + self.batch_size]
            results = await asyncio.gather(*(
                self._delete(node, key) for node, key in batch
            ), return_exceptions=True)
            deleted += sum(1 for r in results if not isinstance(r, Exception))
            if self.pause_s and offset + self.batch_size < len(copies):
                await asyncio.sleep(self.pause_s)
        self.controller.counters["cleanup_deletes"] += deleted
        return deleted


async def run_membership_change(
    controller: FleetController, plan: MigrationPlan,
    endpoints: EndpointFactory, *,
    read_cache: Optional[ReadCache] = None,
    batch_size: int = DEFAULT_BATCH_SIZE, pause_s: float = DEFAULT_PAUSE_S,
    max_attempts: int = 3, retry_backoff_s: float = 0.05,
) -> Dict[str, Any]:
    """Drive a begun ``plan`` to its cutover, or abort it.

    Streams the moving keys through ``endpoints()``; a mid-stream
    failure (a rack crash during migration lands here) retries with
    linear back-off.  Past ``max_attempts`` the attempts' copies are
    deleted from the destinations (best-effort: a key deleted later must
    not come back with the next change), the plan aborts, the old ring
    keeps ruling, and :class:`MembershipError` is raised: no acked write
    is lost either way.  On success the epoch commits, ``read_cache`` is
    fenced, an add deletes the moved keys' shadow copies from their old
    owners (a drained rack's copies leave with it), and the report both
    shapes answer ``admin`` with is returned.  Stream puts and deletes
    bypass the front door, so they invalidate ``read_cache`` here.  The
    caller owns the node bookkeeping on either side of this call.
    """
    while True:
        scan, put, delete, close = endpoints()
        if read_cache is not None:
            put = _then_invalidate(put, read_cache)
            delete = _then_invalidate(delete, read_cache)
        stream = MigrationStream(
            controller, plan, scan=scan, put=put, delete=delete,
            batch_size=batch_size, pause_s=pause_s,
        )
        try:
            report = await stream.run()
            break
        except MigrationStreamError as exc:
            if plan.attempt >= max_attempts:
                # Still under the plan, so no other change can start
                # streaming to these nodes while the copies go.
                await stream.cleanup([
                    (plan.moving_range_for_key(key).dst, key)
                    for key in sorted(plan.copied)
                ])
                await close()
                attempts = plan.attempt
                controller.abort()
                verb = "admitting" if plan.kind == "add" else "draining"
                raise MembershipError(
                    f"{verb} rack {plan.node} failed after {attempts} "
                    f"attempt(s): {exc}"
                ) from exc
            await close()
            plan = controller.retry()
            await asyncio.sleep(retry_backoff_s * plan.attempt)
    epoch = controller.commit()
    if read_cache is not None:
        read_cache.fence(epoch)
    try:
        if plan.kind == "add":
            await stream.cleanup(report.moved)
    finally:
        await close()
    return {
        "rack": plan.node, "epoch": epoch, "kind": plan.kind,
        "keys_moved": report.keys_moved,
        "bytes_streamed": report.bytes_streamed,
        "skipped_forwarded": report.skipped_forwarded,
        "attempts": plan.attempt,
        "moved_fraction": round(plan.moved_fraction, 6),
        "racks": controller.ring.nodes,
    }


def _then_invalidate(endpoint: Callable[..., Awaitable[None]],
                     read_cache: ReadCache) -> Callable[..., Awaitable[None]]:
    async def wrapped(node: int, key: str, *value: str) -> None:
        await endpoint(node, key, *value)
        read_cache.invalidate(key)
    return wrapped


async def forwarded_write(controller: FleetController, key: str,
                          apply: ApplyFn) -> Dict[str, Any]:
    """A client write to ``key`` while its range is moving.

    Applied at the authoritative old owner first, whose answer is the
    client's: a shed or failed primary raises as-is, forwarded nowhere.
    After an ok the key is marked forwarded (the stream will not
    overwrite it), any stream put of it in flight is waited out, and the
    write lands last at the new owner.  A failed forward fails the
    attempt like a failed stream put, so the ack stands -- unless the
    change cut over meanwhile.  Returns the old owner's payload, its
    latency summed over both legs.
    """
    plan, epoch = controller.plan, controller.epoch
    src, dst = controller.write_route(key)
    payload = dict(await apply(src))
    if dst is None or (controller.plan is not plan
                       and controller.epoch == epoch):
        return payload  # no window, or it aborted: the old owner rules
    controller.note_forwarded(key)
    controller.counters["write_forwards"] += 1
    await controller.await_stream_put(key)
    if controller.plan is not plan and controller.epoch == epoch:
        return payload  # aborted meanwhile
    try:
        forwarded = await apply(dst)
    except _ENDPOINT_ERRORS:
        if controller.epoch != epoch:
            raise
        controller.forward_failed(key)
        return payload
    payload["latency_us"] += forwarded["latency_us"]
    return payload
