"""The DRAM write cache (§3.5.1).

Writes are absorbed by the server's DRAM cache and "considered complete
when all replicas have a DRAM copy"; dirty pages are flushed to flash in
the background.  The cache is what keeps write tail latency low even while
GC runs -- unless it fills, at which point admission blocks until the
flusher frees a slot (the write-tail mechanism in Figure 9b).

Flushes are submitted through the server's I/O scheduler (``submit_fn``)
when one is wired up, so background writes compete with reads exactly as
in the real storage stack -- and benefit from coordinated scheduling and
coordinated GC like any other request.
"""

from collections import OrderedDict, deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import ConfigError
from repro.sim import Simulator
from repro.vssd.vssd import VSsd

#: Below the watermark the flusher batches lazily behind this dwell.
_DWELL_US = 200.0

#: A parked admission: (dirty key, vssd, continuation).
_ParkedAdmission = Tuple[Tuple[int, int], VSsd, Callable[[], None]]


class WriteCache:
    """A bounded dirty-page cache with a background flusher per server."""

    def __init__(
        self,
        sim: Simulator,
        capacity_pages: int = 1024,
        flush_watermark: float = 0.5,
        flush_parallelism: int = 4,
        submit_fn: Optional[Callable[[VSsd, int, Callable[[], None]], None]] = None,
    ) -> None:
        if capacity_pages <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity_pages}")
        if not 0.0 <= flush_watermark < 1.0:
            raise ConfigError(f"watermark must be in [0,1), got {flush_watermark}")
        if flush_parallelism < 1:
            raise ConfigError("flush_parallelism must be >= 1")
        self.sim = sim
        self.capacity = capacity_pages
        self.flush_watermark = flush_watermark
        self.flush_parallelism = flush_parallelism
        #: When set, flushes go through the server's I/O scheduler instead
        #: of straight to the device: ``submit_fn(vssd, lpn, then)``.
        self.submit_fn = submit_fn
        #: Dirty entries in flush order: (vssd_id, lpn) -> vssd.  Duplicate
        #: writes to a hot page coalesce (write combining).
        self._dirty: "OrderedDict[Tuple[int, int], VSsd]" = OrderedDict()
        self._admission_waiters: Deque[_ParkedAdmission] = deque()
        #: True while the flusher sits out its low-pressure dwell.
        self._dwelling = False
        #: True while ``_run_flusher`` runs its loop (see there).
        self._flushing = False
        self._outstanding = 0
        #: Called each time the last dirty page reaches flash.  The live
        #: service's pump ends its turn here: an acked write's flush is
        #: part of the work that write brought.
        self.on_clean: Optional[Callable[[], None]] = None
        self.admissions = 0
        self.coalesced = 0
        self.flushes = 0
        self.full_stalls = 0

    @property
    def dirty_pages(self) -> int:
        """Pages cached but not yet handed to the flusher."""
        return len(self._dirty)

    @property
    def clean(self) -> bool:
        """Nothing dirty and no flush in flight."""
        return not self._dirty and not self._outstanding

    @property
    def occupancy(self) -> float:
        """Fill fraction including flushes still in flight."""
        return (len(self._dirty) + self._outstanding) / self.capacity

    def start_admit(self, vssd: VSsd, lpn: int, then: Callable[[], None]) -> None:
        """Admit one write and call ``then()`` once the DRAM copy exists --
        at once unless the cache is full, in which case the admission
        parks until a flush frees a slot."""
        key = (vssd.vssd_id, lpn)
        if key in self._dirty:
            self._dirty.move_to_end(key)
            self.coalesced += 1
            self.admissions += 1
            then()
            return
        self._admit_or_park(key, vssd, then)

    def _admit_or_park(self, key: Tuple[int, int], vssd: VSsd,
                       then: Callable[[], None]) -> None:
        if len(self._dirty) + self._outstanding >= self.capacity:
            self.full_stalls += 1
            self._admission_waiters.append((key, vssd, then))
            return
        self._dirty[key] = vssd
        self.admissions += 1
        # Ack, then flush: the acks of admissions a flusher loop wakes
        # leave in admission order.
        then()
        self._run_flusher()

    def _run_flusher(self) -> None:
        """Drain dirty pages, lazily below the watermark, aggressively
        above it, with bounded parallelism.  Runs whenever a page is
        admitted or a flush completes; a dwell in progress absorbs both.

        A flush is submitted inside this loop.  One the device refuses
        completes synchronously and wakes a parked admission, whose call
        back in here returns at once: this loop is already running and
        flushes the newly admitted page, so a run of refusals never
        recurses."""
        if self._dwelling or self._flushing:
            return
        self._flushing = True
        try:
            while self._dirty and self._outstanding < self.flush_parallelism:
                if self.occupancy < self.flush_watermark:
                    # Light pressure: batch lazily behind a dwell.
                    self._dwelling = True
                    self.sim.schedule_after(_DWELL_US, self._dwell_over)
                    return
                self._flush_oldest()
        finally:
            self._flushing = False

    def _dwell_over(self) -> None:
        self._dwelling = False
        if self._dirty:
            self._flush_oldest()
        self._run_flusher()

    def _flush_oldest(self) -> None:
        key, vssd = self._dirty.popitem(last=False)
        self._outstanding += 1
        if self.submit_fn is not None:
            self.submit_fn(vssd, key[1], self._flush_done)
        else:
            vssd.start_write(key[1], self._flush_done, self._flush_failed)

    def _flush_done(self) -> None:
        self._outstanding -= 1
        self.flushes += 1
        if self._admission_waiters:  # wake one parked admission
            self._admit_or_park(*self._admission_waiters.popleft())
        self._run_flusher()
        if self.on_clean is not None and self.clean:
            self.on_clean()

    def _flush_failed(self, _exc: Exception) -> None:
        # The device refused the page: the slot is free all the same.
        self._flush_done()
